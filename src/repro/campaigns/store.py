"""The persistent result store: one SQLite file, one transaction per cell.

A :class:`ResultStore` is a directory holding ``index.sqlite`` (plus SQLite's
``-wal`` / ``-shm`` companions while a handle is open) and nothing else.  The
``results`` table has one narrow row per *cell* (content-addressed by
:func:`~repro.campaigns.hashing.scenario_cell_key`) with the columns the
query layer filters and aggregates on, declared once in
:data:`RESULT_COLUMNS`; the sibling ``payloads`` table maps the cell key to
the zlib-compressed JSON of the cell: its scenario, once, in the canonical
form the key hashes, and what the export layer records about the run
(verdict, quiescence, metrics, deliveries, schedule provenance), so reading
index rows never touches payload pages.
Counterexamples found by the schedule explorer are first-class ``artifacts``
in the same file, keyed by a hash of scenario + schedule.

Durability model
----------------
A cell's index row and its payload are written in the *same* transaction,
as is a whole :meth:`ResultStore.put_many` batch.  A failed statement, a
full disk or a SIGKILL at any point therefore leaves a cell fully recorded
or absent — there is no state in between for anything to repair.

Schema versioning
-----------------
``SCHEMA_VERSION`` is stamped into the index ``meta`` table at creation and
into every payload.  Stores written under version 1 or 2 (one payload file
per cell beside the index) migrate in place when opened; any other version
raises :class:`SchemaMismatchError` — campaigns never silently mix layouts.

Hit accounting
--------------
The store counts ``hits`` (lookups that found a cell), ``misses`` and
``puts`` per open handle.  The campaign runner's resume guarantee — *zero
duplicate simulations* — is asserted straight off these counters.  The
same increments feed the process-wide :mod:`repro.obs` registry
(``repro_store_lookups_total``, ``repro_store_puts_total``,
``repro_store_blob_bytes_total``, ``repro_store_gc_total``) when
observability is enabled, which is where totals across handles and
processes are read.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sqlite3
import time
import zlib
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .. import obs
from ..experiments.config import Scenario
from ..experiments.export import provenance_from_dict, scenario_result_to_dict
from ..explore.serialize import (
    counterexample_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from .hashing import cell_key_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import ScenarioResult
    from ..explore.explorer import Counterexample

#: Bump when the index or payload layout changes incompatibly.
SCHEMA_VERSION = 3

#: Versions a handle opens (older ones migrate in place), and so the payload
#: versions :meth:`ResultStore.load` accepts: 2 and 3 moved things (``wall_time``
#: into the index, then the payload into the index file), never the payload JSON.
_READABLE_VERSIONS = frozenset({1, 2, SCHEMA_VERSION})

#: How long a handle waits on another writer before erroring (milliseconds).
_BUSY_TIMEOUT_MS = 30_000

_INDEX_NAME = "index.sqlite"


class StoreError(RuntimeError):
    """Base class for result-store failures."""


class SchemaMismatchError(StoreError):
    """The on-disk store was written under a different schema version."""


@dataclass(frozen=True)
class StoredRow:
    """One indexed cell — the queryable summary of a stored result.

    Exposes the same accessors the CLI's aggregation code reads off a live
    :class:`~repro.experiments.runner.ScenarioResult` (``all_properties_
    hold``, ``mean_latency``, ``quiescent``), so table adapters work
    uniformly over live and stored data.
    """

    cell_key: str
    name: str
    algorithm: str
    channel_type: str
    detector_setup: str
    workload: Optional[str]
    n_processes: int
    n_crashes: int
    seed: int
    loss_kind: str
    loss_level: Optional[float]
    delay_kind: str
    explore_strategy: Optional[str]
    explore_index: int
    all_hold: bool
    quiescent: bool
    anonymity_passed: bool
    stop_reason: str
    final_time: float
    mean_latency: Optional[float]
    total_sends: int
    deliveries: int
    schedule_strategy: str
    schedule_hash: str
    created_at: float
    #: Wall-clock seconds the cell took to simulate (``None`` for rows
    #: written before schema 2 or results assembled without timing).
    wall_time: Optional[float] = None

    @property
    def all_properties_hold(self) -> bool:
        """Alias matching :class:`ScenarioResult` for shared aggregation."""
        return self.all_hold


class PackedCell(NamedTuple):
    """All :meth:`ResultStore.put_many` writes of one result, as
    :meth:`ResultStore.pack` builds it with no store at hand (about 1 kB)."""

    row: tuple  #: the index row's values, in :data:`RESULT_COLUMNS` order
    payload: bytes  #: the compressed payload

    @property
    def cell_key(self) -> str:
        """The key the cell was packed under (the first column)."""
        return self.row[0]


@dataclass(frozen=True)
class CampaignInfo:
    """Summary of one registered campaign: planned vs completed cells."""

    name: str
    suite_name: str
    total: int
    done: int
    created_at: float
    updated_at: float

    @property
    def complete(self) -> bool:
        """Whether every planned cell has a stored result."""
        return self.done >= self.total


@dataclass(frozen=True)
class CounterexampleRow:
    """One stored counterexample artifact (index view).

    ``artifact_id`` is the store's primary key — a hash of the scenario's
    canonical form *plus* the schedule hash, because the schedule hash
    alone only identifies a decision trace, which different scenarios can
    share.
    """

    artifact_id: str
    schedule_hash: str
    strategy: str
    algorithm: str
    signature: tuple[str, ...]
    shrunk_verified: bool
    created_at: float


@dataclass(frozen=True)
class GcStats:
    """What one :meth:`ResultStore.gc` pass removed."""

    dropped_results: int

    def describe(self) -> str:
        """One-line summary for the CLI."""
        return (f"gc: dropped {self.dropped_results} unreferenced result(s), "
                "compacted the index")


def _loss_level(scenario: Scenario) -> Optional[float]:
    """Representative numeric loss level for query convenience.

    Bernoulli's probability is the common sweep axis; other kinds have no
    single scalar and map to ``None`` (query them by ``loss_kind``).
    """
    if scenario.loss.kind == "bernoulli":
        return float(scenario.loss.params.get("probability", 0.0))
    if scenario.loss.kind == "none":
        return 0.0
    return None


#: The results index, declared once: ``(column, SQL type, reader, keyword)``.
#: The reader takes the finished ``ScenarioResult`` (``None`` for the three
#: columns :meth:`ResultStore.pack` supplies itself); the keyword, where
#: there is one, is the :meth:`ResultStore.query` filter on that column.
#: The DDL, the insert, the select list, the :class:`StoredRow` construction
#: and the filter map derive from this table: a new column is one entry here
#: plus one :class:`StoredRow` field.
RESULT_COLUMNS: tuple[tuple[str, str, Optional[Callable[..., Any]], Optional[str]], ...] = (
    ("cell_key", "TEXT PRIMARY KEY", None, None),
    ("name", "TEXT NOT NULL", attrgetter("scenario.name"), "name"),
    ("algorithm", "TEXT NOT NULL", attrgetter("scenario.algorithm"), "algorithm"),
    ("channel_type", "TEXT NOT NULL", attrgetter("scenario.channel_type"), "channel_type"),
    ("detector_setup", "TEXT NOT NULL", attrgetter("scenario.detector_setup"), "detector_setup"),
    ("workload", "TEXT",
     lambda r: r.scenario.workload if isinstance(r.scenario.workload, str) else None,
     "workload"),
    ("n_processes", "INTEGER NOT NULL", attrgetter("scenario.n_processes"), "n_processes"),
    ("n_crashes", "INTEGER NOT NULL", attrgetter("scenario.n_crashes"), "n_crashes"),
    ("seed", "INTEGER NOT NULL", attrgetter("scenario.seed"), "seed"),
    ("loss_kind", "TEXT NOT NULL", attrgetter("scenario.loss.kind"), "loss_kind"),
    ("loss_level", "REAL", lambda r: _loss_level(r.scenario), "loss"),
    ("delay_kind", "TEXT NOT NULL", attrgetter("scenario.delay.kind"), "delay_kind"),
    ("explore_strategy", "TEXT", attrgetter("scenario.explore_strategy"), "explore_strategy"),
    ("explore_index", "INTEGER NOT NULL", attrgetter("scenario.explore_index"), None),
    ("all_hold", "INTEGER NOT NULL", lambda r: int(r.all_properties_hold), "all_hold"),
    ("quiescent", "INTEGER NOT NULL", lambda r: int(r.quiescence.quiescent), "quiescent"),
    ("anonymity_passed", "INTEGER NOT NULL", lambda r: int(r.anonymity.passed),
     "anonymity_passed"),
    ("stop_reason", "TEXT NOT NULL", attrgetter("simulation.stop_reason"), "stop_reason"),
    ("final_time", "REAL NOT NULL", lambda r: float(r.simulation.final_time), None),
    ("mean_latency", "REAL", attrgetter("metrics.mean_latency"), None),
    ("total_sends", "INTEGER NOT NULL", attrgetter("metrics.total_sends"), None),
    ("deliveries", "INTEGER NOT NULL", attrgetter("metrics.deliveries"), None),
    # A run without provenance (``schedule is None``) reads as the default.
    ("schedule_strategy", "TEXT NOT NULL",
     lambda r: getattr(r.simulation.schedule, "strategy", "default"), None),
    ("schedule_hash", "TEXT NOT NULL",
     lambda r: getattr(r.simulation.schedule, "schedule_hash", ""), None),
    ("schema_version", "INTEGER NOT NULL", None, None),
    ("created_at", "REAL NOT NULL", None, None),
    ("wall_time", "REAL", attrgetter("wall_time"), None),
)

_COLUMN_NAMES = tuple(name for name, _sql, _read, _keyword in RESULT_COLUMNS)
_COLUMN_LIST = ", ".join(_COLUMN_NAMES)
_INSERT_RESULT_SQL = (f"INSERT OR REPLACE INTO results ({_COLUMN_LIST}) "
                      f"VALUES ({', '.join('?' * len(_COLUMN_NAMES))})")
_INSERT_PAYLOAD_SQL = "INSERT OR REPLACE INTO payloads (cell_key, payload) VALUES (?, ?)"
_ROW_FIELDS = tuple(f.name for f in fields(StoredRow))
#: Where each :class:`StoredRow` field sits in a :class:`PackedCell` row.
_ROW_POSITIONS = tuple(_COLUMN_NAMES.index(name) for name in _ROW_FIELDS)
_SELECT_ROW = "SELECT " + ", ".join(f"r.{name}" for name in _ROW_FIELDS)
#: Positions of the boolean :class:`StoredRow` fields; SQLite has no such type.
_BOOL_FIELDS = tuple(i for i, f in enumerate(fields(StoredRow)) if f.type == "bool")
#: Filters accepted by :meth:`ResultStore.query` (keyword -> SQL column).
_QUERY_COLUMNS = {keyword: name for name, _sql, _read, keyword in RESULT_COLUMNS if keyword}


def _stored_row(values: Iterable[Any]) -> StoredRow:
    """A :class:`StoredRow` from its field values in order, as a
    :data:`_SELECT_ROW` statement returns them."""
    values = list(values)
    for index in _BOOL_FIELDS:
        values[index] = bool(values[index])
    return StoredRow(*values)


def _pack(data: dict[str, Any]) -> bytes:
    """The stored form of a result or artifact payload: minified JSON, zlib."""
    return zlib.compress(json.dumps(data, separators=(",", ":")).encode("utf-8"))


def _unpack(payload: bytes) -> dict[str, Any]:
    return json.loads(zlib.decompress(payload).decode("utf-8"))


class ResultStore:
    """Content-addressed persistence for scenario results and artifacts.

    Parameters
    ----------
    root:
        The store directory (created if missing unless ``create=False``).
    create:
        When false, a missing store raises :class:`StoreError` instead of
        being initialised — the CLI's read verbs use this so a typoed path
        fails loudly.
    """

    def __init__(self, root: str | Path, *, create: bool = True) -> None:
        self.root = Path(root)
        index_path = self.root / _INDEX_NAME
        if not create and not index_path.exists():
            raise StoreError(f"no result store at {self.root}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot use {self.root} as a result store: {exc}"
            ) from exc
        # IMMEDIATE isolation makes every write transaction take the write
        # lock up front, so two handles on one store queue (bounded by the
        # busy timeout) instead of deadlocking on a deferred-to-write lock
        # upgrade ("database is locked" with no retry).
        self._db = sqlite3.connect(index_path, isolation_level="IMMEDIATE",
                                   timeout=_BUSY_TIMEOUT_MS / 1000)
        self._db.row_factory = sqlite3.Row
        # WAL lets readers proceed while a writer commits — the mode the
        # distributed merge/worker paths rely on; busy_timeout covers the
        # statements issued outside explicit transactions.
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        self._db.execute("PRAGMA synchronous=NORMAL")
        #: Lookups that found a stored cell (per open handle).
        self.hits = 0
        #: Lookups that found nothing.
        self.misses = 0
        #: Results written through this handle.
        self.puts = 0
        self._obs_store_label = self.root.name or str(self.root)
        try:
            self._init_schema()
        except BaseException:
            self._db.close()
            raise

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _init_schema(self) -> None:
        # Version check BEFORE any DDL: a store written under a different
        # schema must raise cleanly, not be mutated towards this layout (or
        # crash mid-script on an incompatible table), and one already at
        # this version is opened without a write.
        recorded_version: Optional[int] = None
        if self._db.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'meta'"
        ).fetchone() is not None:
            recorded = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if recorded is not None:
                recorded_version = int(recorded["value"])
        if recorded_version not in (None, *_READABLE_VERSIONS):
            raise SchemaMismatchError(
                f"store at {self.root} has schema version "
                f"{recorded_version}, this library writes version "
                f"{SCHEMA_VERSION}"
            )
        if recorded_version != SCHEMA_VERSION:
            self._create_tables()
        self._migrate_blob_files(recorded_version)

    def _create_tables(self) -> None:
        """The schema of a fresh file, or what a version 1 / 2 store lacks of
        it (such a store keeps its version stamp until it has migrated)."""
        result_columns = ", ".join(f"{name} {sql}"
                                   for name, sql, _read, _keyword in RESULT_COLUMNS)
        self._db.executescript(
            f"""
            CREATE TABLE IF NOT EXISTS meta (
                key TEXT PRIMARY KEY,
                value TEXT NOT NULL
            );
            CREATE TABLE IF NOT EXISTS results ({result_columns});
            CREATE INDEX IF NOT EXISTS idx_results_algorithm
                ON results (algorithm);
            CREATE INDEX IF NOT EXISTS idx_results_loss
                ON results (loss_kind, loss_level);
            CREATE TABLE IF NOT EXISTS payloads (
                cell_key TEXT PRIMARY KEY,
                payload BLOB NOT NULL
            );
            CREATE TABLE IF NOT EXISTS campaigns (
                name TEXT PRIMARY KEY,
                suite_name TEXT NOT NULL,
                total INTEGER NOT NULL,
                created_at REAL NOT NULL,
                updated_at REAL NOT NULL
            );
            CREATE TABLE IF NOT EXISTS campaign_cells (
                campaign TEXT NOT NULL,
                position INTEGER NOT NULL,
                group_label TEXT NOT NULL,
                cell_key TEXT NOT NULL,
                PRIMARY KEY (campaign, position)
            );
            CREATE INDEX IF NOT EXISTS idx_campaign_cells_key
                ON campaign_cells (cell_key);
            CREATE TABLE IF NOT EXISTS artifacts (
                artifact_id TEXT PRIMARY KEY,
                schedule_hash TEXT NOT NULL,
                strategy TEXT NOT NULL,
                algorithm TEXT NOT NULL,
                signature TEXT NOT NULL,
                shrunk_verified INTEGER NOT NULL,
                payload BLOB NOT NULL,
                schema_version INTEGER NOT NULL,
                created_at REAL NOT NULL
            );
            INSERT OR IGNORE INTO meta (key, value)
                VALUES ('schema_version', '{SCHEMA_VERSION}');
            """
        )

    def _migrate_blob_files(self, recorded_version: Optional[int]) -> None:
        """Bring a version 1 or 2 store up to date, in place.

        Those versions kept each payload as ``blobs/<k[:2]>/<k>.json.z``
        beside the index (version 1 also had no ``wall_time`` column); only
        this function still knows that layout.  One transaction adds the
        columns the index lacks (old rows read ``NULL``), moves every payload
        file into ``payloads`` and stamps the new version, so an interrupted
        migration leaves the old store intact.  A row whose file has vanished
        is dropped: the cell gets recomputed instead of failing on
        :meth:`load`.  The directory goes after the commit; if the process
        dies in between, the next open sweeps it.
        """
        blob_dir = self.root / "blobs"
        if recorded_version not in (None, SCHEMA_VERSION):
            with self._db:
                self._db.execute("BEGIN IMMEDIATE")
                present = {row["name"] for row in
                           self._db.execute("PRAGMA table_info(results)")}
                for name, sql, _read, _keyword in RESULT_COLUMNS:
                    if name not in present:
                        self._db.execute(f"ALTER TABLE results ADD COLUMN {name} {sql}")
                # Only rows still without a payload: a handle that held the
                # lock first may have moved everything and removed the files.
                for (key,) in self._db.execute(
                    "SELECT cell_key FROM results WHERE cell_key NOT IN "
                    "(SELECT cell_key FROM payloads)"
                ).fetchall():
                    path = blob_dir / key[:2] / f"{key}.json.z"
                    if path.exists():
                        self._db.execute(_INSERT_PAYLOAD_SQL, (key, path.read_bytes()))
                    else:
                        self._db.execute("DELETE FROM results WHERE cell_key = ?", (key,))
                self._db.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'",
                                 (str(SCHEMA_VERSION),))
        if blob_dir.exists():
            shutil.rmtree(blob_dir, ignore_errors=True)

    def close(self) -> None:
        """Close the SQLite handle (batches not committed are dropped)."""
        self._db.close()

    def commit(self) -> None:
        """Commit the batches ``put_many(commit=False)`` left open."""
        self._db.commit()

    def _count_lookup(self, found: bool) -> None:
        """One hit/miss: handle counters, registry, timeline."""
        if found:
            self.hits += 1
        else:
            self.misses += 1
        if obs.enabled():
            obs.counter(
                "repro_store_lookups_total",
                "Result-store lookups by outcome.",
                ("store", "result"),
            ).inc(result="hit" if found else "miss",
                  store=self._obs_store_label)
        if obs.timeline_active():
            obs.emit("store.hit" if found else "store.miss",
                     store=str(self.root))

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def put(self, result: "ScenarioResult") -> StoredRow:
        """Persist one finished scenario result; returns its index row.

        Re-putting an existing cell overwrites it (the content hash
        guarantees the payload is equivalent, so this is only reachable via
        an explicit ``recompute``).
        """
        return self.put_many([self.pack(result)])[0]

    @staticmethod
    def pack(result: "ScenarioResult",
             cell_key: Optional[str] = None) -> PackedCell:
        """The index row and compressed payload of *result*.  Pure, so it
        runs wherever the run finished (a campaign's pool worker) and only
        the packed cell has to reach the process holding the store.  The
        payload holds the scenario once, in its canonical form; the key,
        unless a caller that already holds it passes it, is that form's."""
        scenario = scenario_to_dict(result.scenario)
        key = cell_key_of(scenario) if cell_key is None else str(cell_key)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "cell_key": key,
            "scenario": scenario,
            "result": scenario_result_to_dict(result),
            "created_at": time.time(),
        }
        supplied = {"cell_key": key, "schema_version": SCHEMA_VERSION,
                    "created_at": payload["created_at"]}
        return PackedCell(
            tuple(read(result) if read else supplied[name]
                  for name, _sql, read, _keyword in RESULT_COLUMNS),
            _pack(payload))

    def put_many(self, cells: Sequence[PackedCell], *,
                 commit: bool = True) -> list[StoredRow]:
        """Persist a batch of cells :meth:`pack` built, in one transaction.

        Every index row and payload of the batch commits together, so
        whatever interrupts the call — a failed statement, a full disk, a
        SIGKILL — the store holds the whole batch or none of it, and never
        an index row without its payload.

        With ``commit=False`` the batch stays in the handle's open
        transaction (visible to this handle's lookups, to no other) until
        :meth:`commit` or the next committing write: a caller that hands
        over one cell at a time pays one commit for several.  An error
        rolls back every batch not committed yet.
        """
        if not cells:
            return []
        try:
            self._db.executemany(_INSERT_RESULT_SQL, [cell.row for cell in cells])
            self._db.executemany(_INSERT_PAYLOAD_SQL,
                                 [(cell.cell_key, cell.payload) for cell in cells])
            if commit:
                self._db.commit()
        except BaseException:
            self._db.rollback()
            raise
        self._count_puts([cell.cell_key for cell in cells],
                         sum(len(cell.payload) for cell in cells))
        return [_stored_row(cell.row[i] for i in _ROW_POSITIONS) for cell in cells]

    def _count_puts(self, cell_keys: Sequence[str], payload_bytes: int) -> None:
        """Handle, registry and timeline accounting of cells just committed."""
        self.puts += len(cell_keys)
        if obs.enabled():
            obs.counter(
                "repro_store_puts_total",
                "Results written to result stores.",
                ("store",),
            ).inc(len(cell_keys), store=self._obs_store_label)
            obs.counter(
                "repro_store_blob_bytes_total",
                "Compressed payload bytes written to result stores.",
                ("store",),
            ).inc(payload_bytes, store=self._obs_store_label)
        if obs.timeline_active():
            for cell_key in cell_keys:
                obs.emit("store.put", store=str(self.root), cell_key=cell_key)

    def contains(self, cell_key: str, *, count: bool = True) -> bool:
        """Whether a result for *cell_key* is stored (counts hit/miss)."""
        found = self._db.execute(
            "SELECT 1 FROM results WHERE cell_key = ?", (cell_key,)
        ).fetchone() is not None
        if count:
            self._count_lookup(found)
        return found

    def __contains__(self, cell_key: object) -> bool:
        return isinstance(cell_key, str) and self.contains(cell_key,
                                                           count=False)

    def get(self, cell_key: str, *, count: bool = True) -> Optional[StoredRow]:
        """The index row for *cell_key*, or ``None``."""
        row = self._db.execute(
            f"{_SELECT_ROW} FROM results r WHERE r.cell_key = ?", (cell_key,)
        ).fetchone()
        if count:
            self._count_lookup(row is not None)
        return None if row is None else _stored_row(row)

    def load(self, cell_key: str) -> dict[str, Any]:
        """The full stored payload of one cell, scenario rebuilt live.

        The mapping mirrors the stored JSON: ``scenario`` is a live
        :class:`Scenario`, ``result`` the export-layer dict with
        ``schedule`` rebuilt into a
        :class:`~repro.simulation.engine.ScheduleProvenance`.
        """
        row = self._db.execute(
            "SELECT payload FROM payloads WHERE cell_key = ?", (cell_key,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no cell {cell_key} in {self.root}")
        payload = _unpack(row["payload"])
        if payload.get("schema_version") not in _READABLE_VERSIONS:
            raise SchemaMismatchError(
                f"payload of cell {cell_key} has schema version "
                f"{payload.get('schema_version')}, supported: "
                f"{sorted(_READABLE_VERSIONS)}"
            )
        payload["scenario"] = scenario_from_dict(payload["scenario"])
        payload["result"]["schedule"] = provenance_from_dict(
            payload["result"].get("schedule")
        )
        return payload

    def query(
        self,
        *,
        campaign: Optional[str] = None,
        group: Optional[str] = None,
        limit: Optional[int] = None,
        **filters: Any,
    ) -> list[StoredRow]:
        """Stored rows matching every given equality filter.

        Keyword filters map onto index columns (``algorithm=...``,
        ``loss=0.2`` — the Bernoulli probability, ``all_hold=True`` …).
        ``campaign``/``group`` restrict to a campaign's cells, returned in
        campaign position order (the deterministic suite order aggregation
        relies on); without them, rows come back in insertion order.
        """
        clauses: list[str] = []
        params: list[Any] = []
        for key, value in filters.items():
            column = _QUERY_COLUMNS.get(key)
            if column is None:
                raise StoreError(
                    f"unknown query filter {key!r}; known: "
                    f"{', '.join(sorted(_QUERY_COLUMNS))}, campaign, "
                    "group, limit"
                )
            if isinstance(value, bool):
                value = int(value)
            clauses.append(f"r.{column} = ?")
            params.append(value)
        if campaign is not None or group is not None:
            sql = (f"{_SELECT_ROW} FROM campaign_cells c "
                   "JOIN results r ON r.cell_key = c.cell_key")
            if campaign is not None:
                clauses.append("c.campaign = ?")
                params.append(campaign)
            if group is not None:
                clauses.append("c.group_label = ?")
                params.append(group)
            order = "ORDER BY c.campaign, c.position"
        else:
            sql = f"{_SELECT_ROW} FROM results r"
            order = "ORDER BY r.rowid"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += f" {order}"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [_stored_row(row) for row in self._db.execute(sql, params)]

    def __len__(self) -> int:
        return int(self._db.execute(
            "SELECT COUNT(*) AS c FROM results"
        ).fetchone()["c"])

    # ------------------------------------------------------------------ #
    # campaigns
    # ------------------------------------------------------------------ #
    def register_campaign(
        self,
        name: str,
        suite_name: str,
        cells: Sequence[tuple[int, str, str]],
        *,
        resume: bool = False,
    ) -> None:
        """Record a campaign manifest: ``(position, group, cell_key)`` rows.

        A campaign name can only be reused with ``resume=True``, and then
        only with the *identical* cell list — resuming a changed suite under
        an old name would make ``status`` lie about what the numbers mean.
        """
        existing = self._db.execute(
            "SELECT name FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if existing is None:
            now = time.time()
            try:
                with self._db:
                    # `total` counts distinct cells (the completion
                    # denominator): suites scheduling the same scenario
                    # twice still reach 100%.
                    self._db.execute(
                        "INSERT INTO campaigns (name, suite_name, total, "
                        "created_at, updated_at) VALUES (?, ?, ?, ?, ?)",
                        (name, suite_name,
                         len({key for _position, _group, key in cells}),
                         now, now),
                    )
                    self._db.executemany(
                        "INSERT INTO campaign_cells (campaign, position, "
                        "group_label, cell_key) VALUES (?, ?, ?, ?)",
                        [(name, position, group, key)
                         for position, group, key in cells],
                    )
                return
            except sqlite3.IntegrityError:
                # Lost a registration race against another handle on the
                # same store — treat the campaign as pre-existing below.
                pass
        if not resume:
            raise StoreError(
                f"campaign {name!r} already exists in {self.root}; pass "
                "resume=True (CLI: --resume) to continue it"
            )
        recorded = self.campaign_cells(name)
        if recorded != [tuple(cell) for cell in cells]:
            raise StoreError(
                f"campaign {name!r} cannot resume: the suite expands to "
                "a different cell list than the recorded manifest"
            )
        with self._db:
            self._db.execute(
                "UPDATE campaigns SET updated_at = ? WHERE name = ?",
                (time.time(), name),
            )

    def campaign_cells(self, name: str) -> list[tuple[int, str, str]]:
        """The manifest of *name*: ``(position, group, cell_key)`` in order."""
        rows = self._db.execute(
            "SELECT position, group_label, cell_key FROM campaign_cells "
            "WHERE campaign = ? ORDER BY position",
            (name,),
        ).fetchall()
        return [(row["position"], row["group_label"], row["cell_key"])
                for row in rows]

    def campaign_info(self, name: str) -> Optional[CampaignInfo]:
        """Progress summary of one campaign, or ``None`` if unknown."""
        row = self._db.execute(
            "SELECT * FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return None
        done = int(self._db.execute(
            "SELECT COUNT(DISTINCT c.cell_key) AS c FROM campaign_cells c "
            "JOIN results r ON r.cell_key = c.cell_key WHERE c.campaign = ?",
            (name,),
        ).fetchone()["c"])
        return CampaignInfo(
            name=row["name"],
            suite_name=row["suite_name"],
            total=row["total"],
            done=done,
            created_at=row["created_at"],
            updated_at=row["updated_at"],
        )

    def campaigns(self) -> list[CampaignInfo]:
        """Every registered campaign, in creation order."""
        names = [row["name"] for row in self._db.execute(
            "SELECT name FROM campaigns ORDER BY created_at, name"
        ).fetchall()]
        infos = (self.campaign_info(name) for name in names)
        return [info for info in infos if info is not None]

    def delete_campaign(self, name: str) -> None:
        """Drop a campaign manifest (results stay; gc can drop orphans)."""
        if self._db.execute("SELECT 1 FROM campaigns WHERE name = ?",
                            (name,)).fetchone() is None:
            raise StoreError(f"unknown campaign {name!r} in {self.root}")
        with self._db:
            self._db.execute("DELETE FROM campaigns WHERE name = ?", (name,))
            self._db.execute("DELETE FROM campaign_cells WHERE campaign = ?",
                             (name,))

    # ------------------------------------------------------------------ #
    # counterexample artifacts
    # ------------------------------------------------------------------ #
    @staticmethod
    def _artifact_id(data: dict[str, Any]) -> str:
        """Primary key of one counterexample artifact.

        The schedule hash alone only identifies a *decision trace* — two
        different scenarios can legitimately share one (e.g. short
        enumerative traces), so the key hashes the scenario's canonical
        form too.  Re-storing the same scenario+schedule is idempotent.
        """
        scenario_json = json.dumps(data["scenario"], sort_keys=True,
                                   separators=(",", ":"))
        payload = f"artifact:{scenario_json}:{data['schedule_hash']}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]

    def put_counterexample(self, counterexample: "Counterexample") -> str:
        """Persist an explorer counterexample; returns its artifact id.

        The payload is the exact replayable artifact schema written by
        :func:`repro.explore.serialize.write_counterexample`, so an exported
        artifact feeds straight into ``repro-urb replay``.
        """
        data = counterexample_to_dict(counterexample)
        artifact_id = self._artifact_id(data)
        with self._db:
            self._db.execute(
                "INSERT OR REPLACE INTO artifacts (artifact_id, "
                "schedule_hash, strategy, algorithm, signature, "
                "shrunk_verified, payload, schema_version, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    artifact_id,
                    data["schedule_hash"],
                    data["strategy"],
                    data["scenario"]["algorithm"],
                    json.dumps(list(data["signature"])),
                    int(bool(data["shrunk_verified"])),
                    _pack(data),
                    SCHEMA_VERSION,
                    time.time(),
                ),
            )
        return artifact_id

    def counterexamples(self) -> list[CounterexampleRow]:
        """Index rows of every stored counterexample, oldest first."""
        rows = self._db.execute(
            "SELECT artifact_id, schedule_hash, strategy, algorithm, "
            "signature, shrunk_verified, created_at FROM artifacts "
            "ORDER BY created_at"
        ).fetchall()
        return [
            CounterexampleRow(
                artifact_id=row["artifact_id"],
                schedule_hash=row["schedule_hash"],
                strategy=row["strategy"],
                algorithm=row["algorithm"],
                signature=tuple(json.loads(row["signature"])),
                shrunk_verified=bool(row["shrunk_verified"]),
                created_at=row["created_at"],
            )
            for row in rows
        ]

    def load_counterexample_dict(self, reference: str) -> dict[str, Any]:
        """The raw artifact dict of one stored counterexample.

        *reference* is an artifact id or a schedule hash; a schedule hash
        shared by several stored artifacts is rejected as ambiguous.
        """
        rows = self._db.execute(
            "SELECT payload FROM artifacts WHERE artifact_id = ?",
            (reference,),
        ).fetchall()
        if not rows:
            rows = self._db.execute(
                "SELECT payload FROM artifacts WHERE schedule_hash = ?",
                (reference,),
            ).fetchall()
        if not rows:
            raise StoreError(f"no counterexample {reference!r} in {self.root}")
        if len(rows) > 1:
            raise StoreError(
                f"schedule hash {reference!r} matches {len(rows)} stored "
                "counterexamples; use the artifact id from "
                "`campaign query --counterexamples`"
            )
        return _unpack(rows[0]["payload"])

    def export_counterexample(self, reference: str,
                              path: str | Path) -> Path:
        """Write one stored counterexample back out as a replayable JSON
        artifact (the ``repro-urb replay`` input format)."""
        path = Path(path)
        path.write_text(
            json.dumps(self.load_counterexample_dict(reference), indent=2)
            + "\n",
            encoding="utf-8",
        )
        return path

    # ------------------------------------------------------------------ #
    # whole-store operations: merge-in and gc
    # ------------------------------------------------------------------ #
    def adopt(self, source: "ResultStore",
              check: Callable[[str, dict, dict], None]) -> tuple[int, int, int]:
        """Copy every cell and artifact *source* holds and this store lacks.

        One transaction over the source index, attached with ``ATTACH``.
        For each cell both stores hold whose payload bytes differ,
        ``check(cell_key, ours, theirs)`` gets the two decoded payloads and
        raises to refuse the source, before anything is copied.  Then
        payloads and index rows travel verbatim (``created_at`` and
        ``wall_time`` included) and artifacts union by their content-hashed
        id: all of the source or, on any failure, none of it.  Returns
        ``(copied, skipped, artifacts_added)``.
        """
        db = self._db
        lacking = "cell_key NOT IN (SELECT cell_key FROM main.results)"
        db.execute("ATTACH DATABASE ? AS source", (str(source.root / _INDEX_NAME),))
        try:
            with db:
                db.execute("BEGIN IMMEDIATE")
                for key, ours, theirs in db.execute(
                    "SELECT cell_key, ours.payload, theirs.payload "
                    "FROM source.payloads theirs JOIN main.payloads ours USING (cell_key) "
                    "WHERE ours.payload <> theirs.payload"
                ).fetchall():
                    check(key, _unpack(ours), _unpack(theirs))
                held = db.execute("SELECT COUNT(*) FROM source.results").fetchone()[0]
                new = db.execute("SELECT cell_key, LENGTH(payload) FROM source.payloads "
                                 f"WHERE {lacking}").fetchall()
                db.execute("INSERT INTO payloads (cell_key, payload) SELECT cell_key, "
                           f"payload FROM source.payloads WHERE {lacking}")
                # Insertion order is what an unfiltered `query` returns.
                db.execute(f"INSERT INTO results ({_COLUMN_LIST}) SELECT {_COLUMN_LIST} "
                           f"FROM source.results WHERE {lacking} ORDER BY rowid")
                artifacts_added = db.execute(
                    "INSERT OR IGNORE INTO artifacts SELECT * FROM source.artifacts "
                    "ORDER BY created_at, artifact_id"
                ).rowcount
        finally:
            db.execute("DETACH DATABASE source")
        self._count_puts([key for key, _size in new], sum(size for _key, size in new))
        return len(new), held - len(new), artifacts_added

    def gc(self, *, drop_unreferenced: bool = False) -> GcStats:
        """Compact the store (``VACUUM``); there is never anything to repair.

        With ``drop_unreferenced=True``, first delete the results no
        campaign manifest references — the knob for reclaiming space after
        :meth:`delete_campaign`.
        """
        dropped_results = 0
        if drop_unreferenced:
            unreferenced = "cell_key NOT IN (SELECT cell_key FROM campaign_cells)"
            with self._db:
                self._db.execute(f"DELETE FROM payloads WHERE {unreferenced}")
                dropped_results = self._db.execute(
                    f"DELETE FROM results WHERE {unreferenced}").rowcount
        self._db.execute("VACUUM")
        if obs.enabled():
            obs.counter(
                "repro_store_gc_total",
                "Result-store gc actions by kind.",
                ("store", "kind"),
            ).inc(dropped_results, kind="dropped_results",
                  store=self._obs_store_label)
        if obs.timeline_active():
            obs.emit("store.gc", store=str(self.root),
                     dropped_results=dropped_results)
        return GcStats(dropped_results)
