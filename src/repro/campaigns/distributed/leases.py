"""The lease table: shared SQLite state of one distributed campaign job.

A *job* is one suite expansion shared by a coordinator and any number of
worker processes.  The coordinator writes it once (the cell manifest plus an
initial partition into contiguous *ranges*); workers then lease ranges,
heartbeat while executing them, and mark them done.  All coordination state
lives in a single SQLite database in WAL mode, so every participant runs on
the one host that holds the job directory: WAL does not work over a network
filesystem.  Any number of worker processes on that host share the job.

Lease protocol
--------------
* ``claim`` runs in one ``BEGIN IMMEDIATE`` transaction: first every
  *expired* lease (``lease_expires < now``, strictly — a heartbeat landing
  exactly at the timeout keeps the lease) is reclaimed back to ``pending``,
  then the first pending range is granted.  Single-writer transactions make
  double-reclaim impossible: two claimants racing for one expired range
  serialise, and the loser is handed a different range (or nothing).
* Every grant increments the range's ``epoch``.  A worker's later calls
  (``renew``, ``record_cell_done``, ``complete_range``) are guarded by
  ``(worker, epoch)`` — a zombie worker whose lease was reclaimed cannot
  renew, complete, or corrupt the progress counters of the new owner.  Its
  already-persisted cells are harmless: stores are content-addressed, so the
  merge step deduplicates them.
* A cell that raises is recorded with its error by the fenced call that
  counts it (``record_cell_done(..., failed=...)``) and its range runs on
  to completion: a cell's run is deterministic, so a retry would raise
  again.  The record goes with the lease: a reclaim deletes the failures
  of the ranges it returns to pending, whose cells run again.
* Near the tail, grants shrink: a claim never receives more than
  ``ceil(pending_cells / (2 * active_workers))`` cells (the remainder of the
  range is split off back to ``pending``), so the last ranges spread over
  idle workers instead of sitting in one straggler's lease.  Work stealing
  is exactly lease reclamation plus this shrinking grant — no extra
  machinery.

Failure model
-------------
A killed or hung worker loses only its unexpired lease window: after
``lease_timeout`` the range is reclaimed and re-executed elsewhere, and the
dead worker's partially filled store still merges in (identical cells hash
identically).  Coordinator death loses nothing but the wait loop — the lease
database *is* the job state, so re-running ``campaign serve`` against the
same workdir resumes coordination where it stopped.
"""

from __future__ import annotations

import json
import math
import os
import socket
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from ... import obs

#: Bump when the lease-table layout changes incompatibly.
LEASE_SCHEMA_VERSION = 2

#: Default lease duration: a worker must heartbeat within this window.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Default cells per initial range.
DEFAULT_RANGE_SIZE = 8

_DB_NAME = "leases.sqlite"


class LeaseError(RuntimeError):
    """A lease-table invariant was violated (bad path, wrong schema, …)."""


def default_worker_id() -> str:
    """A worker identity unique across hosts and processes."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class JobCell:
    """One cell of the job manifest, as granted to a worker."""

    position: int
    group: str
    cell_key: str
    scenario: dict[str, Any]


@dataclass(frozen=True)
class RangeGrant:
    """One leased range: contiguous manifest positions plus the lease token.

    ``epoch`` is the fencing token — every call the worker makes about this
    range must present it, and it changes whenever the range is re-granted.
    """

    range_id: int
    start: int
    count: int
    epoch: int
    worker: str
    lease_expires: float
    cells: tuple[JobCell, ...]


@dataclass(frozen=True)
class JobStatus:
    """Aggregate progress of a job, in cells and ranges."""

    total_cells: int
    completed_cells: int
    leased_cells: int
    pending_cells: int
    total_ranges: int
    done_ranges: int
    leased_ranges: int
    pending_ranges: int
    active_workers: int
    reclaims: int
    #: Cells of leased or done ranges whose run raised (not completed).
    failed_cells: int

    @property
    def complete(self) -> bool:
        """Whether every range has been executed to completion; a failed
        cell is executed, and waits for nothing."""
        return self.done_ranges >= self.total_ranges

    def describe(self) -> str:
        """One-line progress summary for the CLI."""
        return (
            f"{self.completed_cells}/{self.total_cells} cells completed, "
            f"{self.failed_cells} failed, "
            f"{self.leased_cells} leased, {self.pending_cells} pending "
            f"({self.active_workers} active worker(s), "
            f"{self.reclaims} lease reclaim(s))"
        )


class LeaseTable:
    """Handle on one job's lease database (create with ``create=True``).

    Every participant opens its own handle; handles are cheap and safe to
    use from exactly one thread each.  All mutating operations run in
    ``BEGIN IMMEDIATE`` transactions so concurrent handles serialise on the
    SQLite write lock instead of failing.
    """

    def __init__(self, workdir: str | Path, *, create: bool = False) -> None:
        self.workdir = Path(workdir)
        path = self.workdir / _DB_NAME
        if not create and not path.exists():
            raise LeaseError(f"no distributed job at {self.workdir}")
        if create:
            self.workdir.mkdir(parents=True, exist_ok=True)
        # Autocommit connection + explicit BEGIN IMMEDIATE: claim must hold
        # the write lock across its read-reclaim-grant sequence.
        self._db = sqlite3.connect(path, isolation_level=None, timeout=30.0)
        self._db.row_factory = sqlite3.Row
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA busy_timeout=30000")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._lease_timeout: Optional[float] = None
        self._init_schema()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _init_schema(self) -> None:
        has_meta = self._db.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='meta'"
        ).fetchone() is not None
        if has_meta:
            recorded = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if recorded is not None:
                if int(recorded["value"]) != LEASE_SCHEMA_VERSION:
                    raise LeaseError(
                        f"lease table at {self.workdir} has schema version "
                        f"{recorded['value']}, this library speaks version "
                        f"{LEASE_SCHEMA_VERSION}"
                    )
                return  # a current table: every worker handle opens it unwritten
        self._db.executescript(
            """
            CREATE TABLE IF NOT EXISTS meta (
                key TEXT PRIMARY KEY,
                value TEXT NOT NULL
            );
            CREATE TABLE IF NOT EXISTS cells (
                position INTEGER PRIMARY KEY,
                group_label TEXT NOT NULL,
                cell_key TEXT NOT NULL,
                scenario TEXT NOT NULL
            );
            CREATE TABLE IF NOT EXISTS ranges (
                range_id INTEGER PRIMARY KEY AUTOINCREMENT,
                start INTEGER NOT NULL,
                count INTEGER NOT NULL,
                state TEXT NOT NULL
                    CHECK (state IN ('pending', 'leased', 'done')),
                worker TEXT,
                epoch INTEGER NOT NULL DEFAULT 0,
                lease_expires REAL,
                done_cells INTEGER NOT NULL DEFAULT 0,
                attempts INTEGER NOT NULL DEFAULT 0
            );
            CREATE INDEX IF NOT EXISTS idx_ranges_state
                ON ranges (state, start);
            CREATE TABLE IF NOT EXISTS failed_cells (
                position INTEGER PRIMARY KEY,
                error TEXT NOT NULL
            );
            CREATE TABLE IF NOT EXISTS workers (
                worker TEXT PRIMARY KEY,
                store_path TEXT NOT NULL,
                first_seen REAL NOT NULL,
                last_seen REAL NOT NULL,
                cells_done INTEGER NOT NULL DEFAULT 0
            );
            """
        )
        self._db.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(LEASE_SCHEMA_VERSION)),
        )

    def close(self) -> None:
        """Close the underlying SQLite handle."""
        self._db.close()

    def __enter__(self) -> "LeaseTable":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # job creation (coordinator side)
    # ------------------------------------------------------------------ #
    def initialise(
        self,
        *,
        name: str,
        suite_name: str,
        cells: Sequence[tuple[int, str, str, dict[str, Any]]],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        range_size: int = DEFAULT_RANGE_SIZE,
    ) -> None:
        """Write the job manifest: cells plus the initial range partition.

        *cells* rows are ``(position, group, cell_key, canonical_scenario)``.
        Re-initialising an existing job is allowed only with an identical
        manifest (the coordinator resume path); anything else is a loud
        error, because workers may already be executing the recorded cells.
        """
        if lease_timeout <= 0:
            raise LeaseError("lease_timeout must be positive")
        if range_size < 1:
            raise LeaseError("range_size must be at least 1")
        existing = self._db.execute(
            "SELECT value FROM meta WHERE key = 'job_name'"
        ).fetchone()
        if existing is not None:
            recorded = [
                (row["position"], row["group_label"], row["cell_key"])
                for row in self._db.execute(
                    "SELECT position, group_label, cell_key FROM cells "
                    "ORDER BY position"
                ).fetchall()
            ]
            if existing["value"] != name or recorded != [
                (position, group, key)
                for position, group, key, _scenario in cells
            ]:
                raise LeaseError(
                    f"workdir {self.workdir} already holds job "
                    f"{existing['value']!r} with a different manifest; "
                    "use a fresh workdir per job"
                )
            return  # identical manifest: resume coordination as-is
        now = time.time()
        self._db.execute("BEGIN IMMEDIATE")
        try:
            self._db.executemany(
                "INSERT INTO cells (position, group_label, cell_key, "
                "scenario) VALUES (?, ?, ?, ?)",
                [
                    # In the order scenario_to_dict wrote it, so a worker's
                    # payload spells the scenario as a local run's does.
                    (position, group, key,
                     json.dumps(scenario, separators=(",", ":")))
                    for position, group, key, scenario in cells
                ],
            )
            positions = [position for position, _g, _k, _s in cells]
            for start_index in range(0, len(positions), range_size):
                chunk = positions[start_index:start_index + range_size]
                self._db.execute(
                    "INSERT INTO ranges (start, count, state) "
                    "VALUES (?, ?, 'pending')",
                    (chunk[0], len(chunk)),
                )
            self._db.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                [
                    ("job_name", name),
                    ("suite_name", suite_name),
                    ("lease_timeout", repr(float(lease_timeout))),
                    ("created_at", repr(now)),
                ],
            )
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def lease_timeout(self) -> float:
        """The job's lease duration in seconds: read once per handle, since
        only :meth:`initialise` writes it (before then, the default)."""
        if self._lease_timeout is None:
            row = self._db.execute(
                "SELECT value FROM meta WHERE key = 'lease_timeout'"
            ).fetchone()
            if row is None:
                return DEFAULT_LEASE_TIMEOUT
            self._lease_timeout = float(row["value"])
        return self._lease_timeout

    def manifest(self) -> list[tuple[int, str, str]]:
        """``(position, group, cell_key)`` rows, in position order."""
        return [
            (row["position"], row["group_label"], row["cell_key"])
            for row in self._db.execute(
                "SELECT position, group_label, cell_key FROM cells "
                "ORDER BY position"
            ).fetchall()
        ]

    # ------------------------------------------------------------------ #
    # worker registration
    # ------------------------------------------------------------------ #
    def register_worker(self, worker: str, store_path: str | Path) -> None:
        """Record a worker and the store it persists into.

        The store path is how the coordinator discovers merge sources —
        including the stores of workers that die mid-job.
        """
        now = time.time()
        self._db.execute("BEGIN IMMEDIATE")
        try:
            self._db.execute(
                "INSERT INTO workers (worker, store_path, first_seen, "
                "last_seen) VALUES (?, ?, ?, ?) "
                "ON CONFLICT(worker) DO UPDATE SET last_seen = excluded."
                "last_seen, store_path = excluded.store_path",
                (worker, str(store_path), now, now),
            )
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise

    def worker_stores(self) -> list[Path]:
        """Every registered worker store path, in first-seen order."""
        return [
            Path(row["store_path"])
            for row in self._db.execute(
                "SELECT store_path FROM workers ORDER BY first_seen, worker"
            ).fetchall()
        ]

    # ------------------------------------------------------------------ #
    # the lease protocol (worker side)
    # ------------------------------------------------------------------ #
    def claim(self, worker: str, *,
              now: Optional[float] = None) -> Optional[RangeGrant]:
        """Reclaim expired leases, then lease one range to *worker*.

        Returns ``None`` when nothing is claimable (all ranges done or
        validly leased elsewhere).  See the module docs for the shrinking-
        grant rule.
        """
        now = time.time() if now is None else now
        timeout = self.lease_timeout
        self._db.execute("BEGIN IMMEDIATE")
        try:
            # 1. Reclamation: strictly-expired leases return to pending.
            #    A lease whose expiry equals `now` is still honoured — the
            #    heartbeat landed exactly at the timeout.  Their cells run
            #    again, so the failures recorded under them go.
            self._db.execute(
                "DELETE FROM failed_cells WHERE EXISTS (SELECT 1 FROM ranges "
                "WHERE state = 'leased' AND lease_expires < ? AND "
                "failed_cells.position >= start AND "
                "failed_cells.position < start + count)",
                (now,),
            )
            reclaimed = self._db.execute(
                "UPDATE ranges SET state = 'pending', worker = NULL, "
                "lease_expires = NULL, done_cells = 0 "
                "WHERE state = 'leased' AND lease_expires < ?",
                (now,),
            ).rowcount
            row = self._db.execute(
                "SELECT * FROM ranges WHERE state = 'pending' "
                "ORDER BY start LIMIT 1"
            ).fetchone()
            if row is None:
                self._db.execute("COMMIT")
                return None
            # 2. Shrinking grant: near the tail, split the range so idle
            #    workers share the remainder instead of waiting on one
            #    straggler's lease.
            pending = int(self._db.execute(
                "SELECT COALESCE(SUM(count), 0) AS c FROM ranges "
                "WHERE state = 'pending'"
            ).fetchone()["c"])
            active = int(self._db.execute(
                "SELECT COUNT(*) AS c FROM workers WHERE last_seen >= ?",
                (now - timeout,),
            ).fetchone()["c"])
            cap = max(1, math.ceil(pending / (2 * max(active, 1))))
            granted = min(int(row["count"]), cap)
            if granted < int(row["count"]):
                self._db.execute(
                    "INSERT INTO ranges (start, count, state) "
                    "VALUES (?, ?, 'pending')",
                    (int(row["start"]) + granted,
                     int(row["count"]) - granted),
                )
                self._db.execute(
                    "UPDATE ranges SET count = ? WHERE range_id = ?",
                    (granted, row["range_id"]),
                )
            epoch = int(row["epoch"]) + 1
            expires = now + timeout
            self._db.execute(
                "UPDATE ranges SET state = 'leased', worker = ?, epoch = ?, "
                "lease_expires = ?, done_cells = 0, attempts = attempts + 1 "
                "WHERE range_id = ?",
                (worker, epoch, expires, row["range_id"]),
            )
            self._db.execute(
                "UPDATE workers SET last_seen = ? WHERE worker = ?",
                (now, worker),
            )
            # Read before the commit: a claim that cannot hand its cells
            # over has granted nothing.
            granted_cells = self._db.execute(
                "SELECT * FROM cells WHERE position >= ? AND position < ? "
                "ORDER BY position",
                (int(row["start"]), int(row["start"]) + granted),
            ).fetchall()
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        self._record_claim(worker, reclaimed,
                           range_id=int(row["range_id"]),
                           start=int(row["start"]), count=granted)
        cells = tuple(
            JobCell(
                position=cell["position"],
                group=cell["group_label"],
                cell_key=cell["cell_key"],
                scenario=json.loads(cell["scenario"]),
            )
            for cell in granted_cells
        )
        return RangeGrant(
            range_id=int(row["range_id"]),
            start=int(row["start"]),
            count=granted,
            epoch=epoch,
            worker=worker,
            lease_expires=expires,
            cells=cells,
        )

    def _record_claim(self, worker: str, reclaimed: int, *, range_id: int,
                      start: int, count: int) -> None:
        """Registry + timeline effects of one successful claim."""
        if obs.enabled():
            obs.counter("repro_lease_claims_total",
                        "Range leases granted to workers.").inc()
            if reclaimed:
                obs.counter(
                    "repro_lease_reclaims_total",
                    "Expired leases reclaimed back to pending.",
                ).inc(reclaimed)
        if obs.timeline_active():
            if reclaimed:
                obs.emit("lease.reclaim", worker=worker, reclaimed=reclaimed)
            obs.emit("lease.claim", worker=worker, range_id=range_id,
                     start=start, count=count)

    def _guarded_update(self, sql: str, params: Sequence[Any],
                        *then: tuple[str, Sequence[Any]]) -> bool:
        """One fenced transition in one transaction: the ``ranges`` update
        guarded by ``(worker, epoch)`` and, when the guard matched, the
        ``(sql, params)`` statements *then* (the caller's ``workers`` row,
        failed cells), all or nothing."""
        self._db.execute("BEGIN IMMEDIATE")
        try:
            changed = self._db.execute(sql, params).rowcount > 0
            for statement in then if changed else ():
                self._db.execute(*statement)
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        return changed

    def renew(self, grant: RangeGrant, *,
              now: Optional[float] = None) -> bool:
        """Heartbeat: extend the lease.  ``False`` means the lease was lost
        (reclaimed and possibly re-granted) — the worker must abandon the
        range without touching its counters."""
        now = time.time() if now is None else now
        renewed = self._guarded_update(
            "UPDATE ranges SET lease_expires = ? WHERE range_id = ? AND "
            "state = 'leased' AND worker = ? AND epoch = ?",
            (now + self.lease_timeout, grant.range_id, grant.worker,
             grant.epoch),
            ("UPDATE workers SET last_seen = ? WHERE worker = ?",
             (now, grant.worker)),
        )
        if obs.enabled():
            obs.counter("repro_lease_renewals_total",
                        "Lease heartbeats, by outcome.",
                        ("outcome",)).inc(
                outcome="renewed" if renewed else "lost")
        if obs.timeline_active():
            obs.emit("lease.renew", worker=grant.worker,
                     range_id=grant.range_id, renewed=renewed)
        return renewed

    def record_cell_done(self, grant: RangeGrant, count: int = 1, *,
                         failed: Sequence[tuple[int, str]] = (),
                         now: Optional[float] = None) -> bool:
        """Record *count* completed cells and the *failed* ones, ``(position,
        error)`` each, and refresh the lease in one step.

        Returns ``False`` (recording nothing) when the lease was lost.
        """
        now = time.time() if now is None else now
        then = [("UPDATE workers SET last_seen = ?, cells_done = "
                 "cells_done + ? WHERE worker = ?", (now, count, grant.worker))]
        then += [("INSERT OR REPLACE INTO failed_cells (position, error) "
                  "VALUES (?, ?)", failure) for failure in failed]
        return self._guarded_update(
            "UPDATE ranges SET done_cells = done_cells + ?, "
            "lease_expires = ? WHERE range_id = ? AND state = 'leased' AND "
            "worker = ? AND epoch = ?",
            (count + len(failed), now + self.lease_timeout, grant.range_id,
             grant.worker, grant.epoch),
            *then,
        )

    def complete_range(self, grant: RangeGrant) -> bool:
        """Mark a leased range done.  ``False`` means the lease was lost —
        another worker owns (or will own) the range now; the zombie's
        persisted cells remain harmlessly in its own store."""
        return self._guarded_update(
            "UPDATE ranges SET state = 'done', lease_expires = NULL "
            "WHERE range_id = ? AND state = 'leased' AND worker = ? AND "
            "epoch = ?",
            (grant.range_id, grant.worker, grant.epoch),
        )

    # ------------------------------------------------------------------ #
    # status
    # ------------------------------------------------------------------ #
    def status(self, *, now: Optional[float] = None) -> JobStatus:
        """Aggregate job progress (does not mutate lease state)."""
        now = time.time() if now is None else now
        timeout = self.lease_timeout
        rows = self._db.execute(
            "SELECT state, COUNT(*) AS ranges, COALESCE(SUM(count), 0) AS "
            "cells, COALESCE(SUM(done_cells), 0) AS done_cells FROM ranges "
            "GROUP BY state"
        ).fetchall()
        by_state = {row["state"]: row for row in rows}

        def cells(state: str) -> int:
            return int(by_state[state]["cells"]) if state in by_state else 0

        def ranges(state: str) -> int:
            return int(by_state[state]["ranges"]) if state in by_state else 0

        leased_done = (int(by_state["leased"]["done_cells"])
                       if "leased" in by_state else 0)
        active = int(self._db.execute(
            "SELECT COUNT(*) AS c FROM workers WHERE last_seen >= ?",
            (now - timeout,),
        ).fetchone()["c"])
        # attempts counts grants; every grant beyond the first on a range
        # followed a reclamation (or a zombie losing its lease).
        reclaims = int(self._db.execute(
            "SELECT COALESCE(SUM(attempts - 1), 0) AS c FROM ranges "
            "WHERE attempts > 1"
        ).fetchone()["c"])
        failed = int(self._db.execute(
            "SELECT COUNT(*) AS c FROM failed_cells").fetchone()["c"])
        total_cells = cells("pending") + cells("leased") + cells("done")
        return JobStatus(
            total_cells=total_cells,
            completed_cells=cells("done") + leased_done - failed,
            leased_cells=cells("leased") - leased_done,
            pending_cells=cells("pending"),
            total_ranges=ranges("pending") + ranges("leased") + ranges("done"),
            done_ranges=ranges("done"),
            leased_ranges=ranges("leased"),
            pending_ranges=ranges("pending"),
            active_workers=active,
            reclaims=reclaims,
            failed_cells=failed,
        )

    def failures(self) -> list[tuple[int, str, str]]:
        """``(position, group, error)`` of every failed cell, in position
        order."""
        return [
            (row["position"], row["group_label"], row["error"])
            for row in self._db.execute(
                "SELECT position, group_label, error FROM failed_cells "
                "JOIN cells USING (position) ORDER BY position"
            ).fetchall()
        ]
