"""The worker side of a distributed campaign.

A :class:`Worker` leases cell ranges from the job's
:class:`~repro.campaigns.distributed.leases.LeaseTable`, executes each cell
with the ordinary :func:`~repro.experiments.runner.run_scenario`, and
persists results into its *own* :class:`~repro.campaigns.store.ResultStore`
— workers never share a store, so there is no write contention; the
coordinator merges the per-worker stores when the job completes.

Each executed cell goes to the store as it finishes, and is committed and
counted a flush at a time: one store commit, then one ``record_cell_done``
counting every cell processed since the previous flush.  That record is the
worker's heartbeat (it refreshes the lease ``claim`` granted), so a flush
also happens before the time since the last one could outgrow half the
lease timeout.  A cell that raises is recorded as failed, with its error,
by the flush that follows it, and the range runs on: a cell's run is
deterministic, so a retry elsewhere would only raise again.  The worker
abandons a range the moment a guarded call reports the lease lost, which a
zombie learns at its next flush.
Abandonment is cheap and safe: whatever the worker persisted is
content-addressed, so the eventual merge deduplicates it against the
re-execution by the new lease holder.  A death inside a flush is the same
case: the reclaimed range re-runs at most that flush's cells, none of them
stored if the worker died before the commit, and skipped by this worker's
``store.contains`` after it, should it reclaim the range itself.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from ... import obs
from ...experiments.runner import run_scenario
from ...explore.serialize import scenario_from_dict
from ..campaign import _PERSIST_FLUSH_EVERY
from ..store import ResultStore
from .leases import (JobCell, LeaseError, LeaseTable, RangeGrant,
                     default_worker_id)


def _cells_total() -> "obs.Counter":
    return obs.counter("repro_worker_cells_total",
                       "Cells processed by distributed workers, by outcome.",
                       ("outcome",))


def _cell_seconds() -> "obs.Histogram":
    # The same per-cell wall-time data `plan_campaign` estimates from:
    # stores persist wall_time per cell; this is its live histogram form.
    return obs.histogram("repro_worker_cell_seconds",
                         "Wall-clock seconds per executed worker cell.")

#: Called after every processed cell: ``(worker_id, done_in_this_worker)``.
WorkerProgress = Callable[[str, int], None]


@dataclass
class WorkerReport:
    """What one :meth:`Worker.run` invocation did."""

    worker_id: str
    store_root: Path
    ranges_completed: int = 0
    ranges_abandoned: int = 0
    cells_executed: int = 0
    cells_cached: int = 0
    elapsed_seconds: float = 0.0
    errors: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary for the CLI."""
        return (
            f"worker {self.worker_id}: {self.cells_executed} cell(s) "
            f"executed, {self.cells_cached} cached, "
            f"{self.ranges_completed} range(s) completed, "
            f"{self.ranges_abandoned} abandoned, {len(self.errors)} "
            f"error(s) ({self.elapsed_seconds:.2f}s)"
        )


class Worker:
    """One lease-driven executor process.

    Parameters
    ----------
    workdir:
        The job directory holding ``leases.sqlite`` (a shared path).
    store_root:
        This worker's private result store (created on demand).  Defaults
        to ``workdir/workers/<worker_id>/store``.
    worker_id:
        Stable identity used in leases; defaults to ``<host>-<pid>``.
    poll_interval:
        Seconds to sleep when nothing is claimable but the job is still
        incomplete (someone else's lease may yet expire).
    worker_plugins:
        Modules imported before executing anything (third-party registry
        registrations), mirroring the batch runner's hook.
    wait_for_job:
        Seconds to wait for the lease table to appear before giving up —
        lets workers be launched alongside (or before) ``campaign serve``.
        ``0`` (the default) requires the job to already exist.
    """

    def __init__(
        self,
        workdir: str | Path,
        *,
        store_root: Optional[str | Path] = None,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.2,
        worker_plugins: Sequence[str] = (),
        wait_for_job: float = 0.0,
    ) -> None:
        self.workdir = Path(workdir)
        self.worker_id = worker_id or default_worker_id()
        self.store_root = Path(
            store_root if store_root is not None
            else self.workdir / "workers" / self.worker_id / "store"
        )
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.poll_interval = poll_interval
        self.worker_plugins = tuple(worker_plugins)
        self.wait_for_job = wait_for_job

    def _open_lease_table(self) -> LeaseTable:
        deadline = time.monotonic() + self.wait_for_job
        while True:
            try:
                return LeaseTable(self.workdir)
            except LeaseError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(min(self.poll_interval, 0.2))

    # ------------------------------------------------------------------ #
    def run(self, *, progress: Optional[WorkerProgress] = None,
            max_ranges: Optional[int] = None) -> WorkerReport:
        """Lease and execute ranges until the job completes.

        ``max_ranges`` bounds how many grants this call processes (testing
        hook); ``None`` runs until every range in the job is done.
        """
        import importlib

        for module_name in self.worker_plugins:
            importlib.import_module(module_name)
        started = time.perf_counter()
        report = WorkerReport(worker_id=self.worker_id,
                              store_root=self.store_root)
        # Connections are opened inside run() so one Worker object can be
        # driven from a fresh thread or process without sharing handles.
        with self._open_lease_table() as table, \
                ResultStore(self.store_root) as store:
            table.register_worker(self.worker_id, self.store_root)
            cleanup = self._setup_observability()
            try:
                worker_cm = obs.span("worker", worker=self.worker_id) \
                    if obs.tracing_active() else nullcontext()
                with worker_cm:
                    while max_ranges is None or report.ranges_completed + \
                            report.ranges_abandoned < max_ranges:
                        grant = table.claim(self.worker_id)
                        if grant is None:
                            if table.status().complete:
                                break
                            time.sleep(self.poll_interval)
                            continue
                        self._execute_grant(table, store, grant, report,
                                            progress)
            finally:
                cleanup()
        report.elapsed_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------ #
    def _setup_observability(self) -> Callable[[], None]:
        """Join the job's trace/federation; returns an undo callable.

        When obs is enabled the worker adopts the coordinator's persisted
        trace context from ``<workdir>/obs/trace.json`` (if this process
        has none yet), labels its spans with the worker id, installs a
        default span sink at ``<workdir>/obs/<worker_id>/timeline.jsonl``
        when no timeline is active, and starts the periodic metrics
        snapshot flusher the coordinator federates from.  Disabled runs
        skip all of it — no uuid, no clock, no files.
        """
        if not obs.enabled():
            return lambda: None
        obs_dir = self.workdir / "obs"
        previous_name = obs.set_process_name(self.worker_id)
        flusher = obs.SnapshotFlusher(obs_dir, self.worker_id).start()
        previous_context: Optional[obs.TraceContext] = None
        adopted = False
        if obs.current_context() is None:
            context = obs.load_context(obs_dir)
            if context is not None:
                previous_context = obs.set_context(context)
                adopted = True
        own_timeline: Optional[obs.Timeline] = None
        if obs.tracing_active() and not obs.timeline_active():
            own_timeline = obs.Timeline(
                obs_dir / self.worker_id / "timeline.jsonl")
            obs.set_timeline(own_timeline)

        def cleanup() -> None:
            flusher.stop()
            if own_timeline is not None:
                obs.set_timeline(None)
                own_timeline.close()
            if adopted:
                obs.set_context(previous_context)
            obs.set_process_name(previous_name)

        return cleanup

    # ------------------------------------------------------------------ #
    def _execute_grant(
        self,
        table: LeaseTable,
        store: ResultStore,
        grant: RangeGrant,
        report: WorkerReport,
        progress: Optional[WorkerProgress],
    ) -> None:
        traced = obs.tracing_active()
        claim_cm = obs.span(
            "claim", range_id=grant.range_id, start=grant.start,
            count=len(grant.cells), epoch=grant.epoch,
        ) if traced else nullcontext()
        with claim_cm as claim_span:
            completed = self._run_grant_cells(table, store, grant, report,
                                              progress, traced)
            if claim_span is not None:
                claim_span.annotate(
                    outcome="completed" if completed else "abandoned")

    def _run_grant_cells(
        self,
        table: LeaseTable,
        store: ResultStore,
        grant: RangeGrant,
        report: WorkerReport,
        progress: Optional[WorkerProgress],
        traced: bool,
    ) -> bool:
        """Process one grant's cells; ``True`` iff the range completed.

        A flush commits the cells stored since the last one, then records
        every cell processed since then, the failed ones with their errors,
        with one ``record_cell_done`` (the heartbeat).  It happens once
        ``_PERSIST_FLUSH_EVERY`` cells are unrecorded, at the end of the
        grant, after a failed cell, and once the time since the last
        heartbeat plus the last cell's duration reaches half the lease
        timeout: a next cell as long as that one still ends inside the
        lease.
        """
        unrecorded = 0
        failed: list[tuple[int, str]] = []
        half_lease = table.lease_timeout / 2
        heartbeat = time.monotonic()  # the claim refreshed the lease
        last = len(grant.cells) - 1
        for index, cell in enumerate(grant.cells):
            started = time.monotonic()
            error = self._run_cell(store, cell, report, traced)
            if error is None:
                unrecorded += 1
                if progress is not None:
                    progress(self.worker_id,
                             report.cells_executed + report.cells_cached)
            else:
                failed.append((cell.position, error))
            now = time.monotonic()
            if (failed or index == last
                    or unrecorded >= _PERSIST_FLUSH_EVERY
                    or (now - heartbeat) + (now - started) >= half_lease):
                store.commit()
                held = not (unrecorded or failed) or table.record_cell_done(
                    grant, unrecorded, failed=failed)
                unrecorded = 0
                failed = []
                heartbeat = now
                if not held:
                    # The lease is lost: the new holder runs the range.
                    report.ranges_abandoned += 1
                    return False
        if table.complete_range(grant):
            report.ranges_completed += 1
            return True
        report.ranges_abandoned += 1
        return False

    @staticmethod
    def _run_cell(store: ResultStore, cell: JobCell, report: WorkerReport,
                  traced: bool) -> Optional[str]:
        """Run one cell and hand it to the store, uncommitted, unless the
        store has it already; the error iff it failed (recorded in
        *report*)."""
        cell_cm = obs.span(
            "cell", cell_key=cell.cell_key, position=cell.position,
            group=cell.group,
        ) if traced else nullcontext()
        with cell_cm as cell_span:
            if store.contains(cell.cell_key, count=False):
                # Cached from an earlier lease of this worker (or a shared
                # store), or stored earlier in this flush (a duplicated
                # manifest cell) — report progress without re-simulating.
                report.cells_cached += 1
                if obs.enabled():
                    _cells_total().inc(outcome="cached")
                if cell_span is not None:
                    cell_span.annotate(outcome="cached")
                return None
            try:
                result = run_scenario(scenario_from_dict(cell.scenario))
            except Exception as exc:  # noqa: BLE001 - as batch
                report.errors.append(
                    f"cell {cell.position} ({cell.group}): {exc!r}")
                if obs.enabled():
                    _cells_total().inc(outcome="error")
                if cell_span is not None:
                    cell_span.annotate(outcome="error", error=repr(exc))
                return repr(exc)
            store.put_many([ResultStore.pack(result, cell.cell_key)],
                           commit=False)
            report.cells_executed += 1
            if obs.enabled():
                _cells_total().inc(outcome="executed")
                _cell_seconds().observe(result.wall_time)
            if cell_span is not None:
                cell_span.annotate(outcome="executed")
            return None


def run_worker(
    workdir: str | Path,
    *,
    store_root: Optional[str | Path] = None,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    worker_plugins: Sequence[str] = (),
    wait_for_job: float = 0.0,
    progress: Optional[WorkerProgress] = None,
) -> WorkerReport:
    """One-call convenience wrapper mirroring :func:`run_campaign`."""
    return Worker(
        workdir,
        store_root=store_root,
        worker_id=worker_id,
        poll_interval=poll_interval,
        worker_plugins=worker_plugins,
        wait_for_job=wait_for_job,
    ).run(progress=progress)
