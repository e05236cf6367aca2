"""The coordinator side of a distributed campaign.

A :class:`Coordinator` owns the job lifecycle:

1. **prepare** — expand the :class:`~repro.experiments.batch.ScenarioSuite`
   into content-addressed cells and write the lease table (manifest plus
   initial range partition) into the job workdir;
2. **wait** — poll the lease table until every range is done, reporting
   progress (the workers are separate processes; the coordinator never
   executes cells itself);
3. **finalize** — merge every registered worker store into the destination
   store and register the campaign manifest there, so ``campaign report``
   renders the distributed run exactly like a single-shot one.

The coordinator is stateless beyond the lease database: killing it and
re-running ``campaign serve`` against the same workdir resumes coordination
without losing any completed work (``initialise`` is idempotent on an
identical manifest, the merge is idempotent by content hash).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from ... import obs
from ...obs import spans
from ...experiments.batch import ScenarioSuite, SuiteItem, normalise_suite
from ...experiments.config import Scenario
from ...explore.serialize import scenario_to_dict
from ..hashing import cell_key_of
from ..store import ResultStore
from .leases import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_RANGE_SIZE,
    JobStatus,
    LeaseError,
    LeaseTable,
)
from .merge import MergeStats, merge_stores

#: Called on every poll with the current aggregate job status.
StatusCallback = Callable[[JobStatus], None]


@dataclass(frozen=True)
class CoordinatorReport:
    """Outcome of one :meth:`Coordinator.serve` lifecycle."""

    name: str
    workdir: Path
    store_root: Path
    status: JobStatus
    merge: MergeStats
    worker_stores: tuple[Path, ...]
    elapsed_seconds: float

    def describe(self) -> str:
        """One-line summary for the CLI."""
        return (
            f"job {self.name!r}: {self.status.describe()}; "
            f"{self.merge.describe()} ({self.elapsed_seconds:.2f}s)"
        )


class Coordinator:
    """Drives one distributed campaign job from a suite to a merged store.

    Parameters
    ----------
    workdir:
        Job directory shared with the workers (holds ``leases.sqlite`` and,
        by default, the per-worker stores).
    suite:
        Anything :func:`normalise_suite` accepts — a
        :class:`ScenarioSuite`, scenarios, or pre-built items.
    name:
        Campaign name registered in the destination store at finalize time
        (defaults to the suite name).
    lease_timeout / range_size:
        Lease protocol knobs, recorded in the lease table at prepare time.
    """

    def __init__(
        self,
        workdir: str | Path,
        suite: Union[ScenarioSuite, Iterable[Scenario], Sequence[SuiteItem]],
        *,
        name: Optional[str] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        range_size: int = DEFAULT_RANGE_SIZE,
    ) -> None:
        self.workdir = Path(workdir)
        self.suite_name, self.items = normalise_suite(suite)
        self.name = name or self.suite_name
        self.lease_timeout = lease_timeout
        self.range_size = range_size
        # Each cell is serialised once, for its key and its lease row.
        self._scenarios = tuple(scenario_to_dict(item.scenario)
                                for item in self.items)
        self._keys = tuple(cell_key_of(data) for data in self._scenarios)
        # Tracing/federation state, populated by prepare() when obs is on.
        self._trace_context: Optional[obs.TraceContext] = None
        self._trace_minted_unix: Optional[float] = None
        self._own_timeline: Optional[obs.Timeline] = None

    # ------------------------------------------------------------------ #
    def manifest_rows(self) -> list[tuple[int, str, str]]:
        """``(position, group, cell_key)`` of every cell, in suite order."""
        return [(item.index, item.group, key)
                for item, key in zip(self.items, self._keys)]

    def _setup_observability(self) -> None:
        """Mint/adopt the job's trace context and install federation.

        Called from :meth:`prepare`; a no-op unless obs is enabled, so
        disabled runs never touch :mod:`uuid` or the filesystem.  The
        context is persisted as ``<workdir>/obs/trace.json`` for workers
        to inherit; resuming a job adopts the existing file so the
        original trace keeps growing.
        """
        if not obs.enabled():
            return
        obs_dir = self.workdir / "obs"
        obs.set_process_name("coordinator")
        if not obs.timeline_active():
            self._own_timeline = obs.Timeline(
                obs_dir / "coordinator" / "timeline.jsonl")
            obs.set_timeline(self._own_timeline)
        context = obs.current_context()
        if context is None:
            context = obs.load_context(obs_dir) or obs.mint_context()
            obs.set_context(context)
        self._trace_context = context
        meta = spans.load_context_meta(obs_dir)
        if meta.get("trace_id") != context.trace_id:
            obs.save_context(obs_dir, context, job=self.name)
            meta = spans.load_context_meta(obs_dir)
        self._trace_minted_unix = float(
            meta.get("minted_unix") or time.time())
        obs.set_federation(obs.Federation(obs_dir))

    def prepare(self) -> None:
        """Write the lease table (idempotent on an identical manifest)."""
        self._setup_observability()
        with obs.phase("shard", job=self.name, cells=len(self.items)):
            with LeaseTable(self.workdir, create=True) as table:
                table.initialise(
                    name=self.name,
                    suite_name=self.suite_name,
                    cells=[
                        (item.index, item.group, key, data)
                        for item, key, data in zip(self.items, self._keys,
                                                   self._scenarios)
                    ],
                    lease_timeout=self.lease_timeout,
                    range_size=self.range_size,
                )

    def wait(
        self,
        *,
        poll_interval: float = 0.5,
        timeout: Optional[float] = None,
        on_status: Optional[StatusCallback] = None,
    ) -> JobStatus:
        """Poll the lease table until every range completes.

        *timeout* bounds the wait in seconds (``None`` waits forever);
        expiry raises :class:`LeaseError` carrying the last status, since a
        stuck distributed job is an operational failure the caller must see.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with LeaseTable(self.workdir) as table:
            while True:
                status = table.status()
                self._record_status(status)
                if on_status is not None:
                    on_status(status)
                if status.complete:
                    return status
                if deadline is not None and time.monotonic() >= deadline:
                    raise LeaseError(
                        f"job {self.name!r} did not complete within "
                        f"{timeout:.1f}s: {status.describe()}"
                    )
                time.sleep(poll_interval)

    def _record_status(self, status: JobStatus) -> None:
        """Mirror one lease-table poll into the metrics registry, so a
        live scrape of the coordinator shows job progress."""
        if not obs.enabled():
            return
        obs.counter("repro_coordinator_polls_total",
                    "Lease-table status polls by the coordinator.").inc()
        cells = obs.gauge("repro_lease_cells",
                          "Job cells by lease state.", ("state",))
        cells.set(status.completed_cells, state="completed")
        cells.set(status.leased_cells, state="leased")
        cells.set(status.pending_cells, state="pending")
        ranges = obs.gauge("repro_lease_ranges",
                           "Job ranges by lease state.", ("state",))
        ranges.set(status.done_ranges, state="done")
        ranges.set(status.leased_ranges, state="leased")
        ranges.set(status.pending_ranges, state="pending")
        obs.gauge("repro_lease_workers_active",
                  "Workers seen within one lease timeout.").set(
            status.active_workers)
        # The table's reclaim total is authoritative across processes; the
        # coordinator mirrors it as a gauge (the counter lives in whichever
        # worker performed the reclaim).
        obs.gauge("repro_lease_reclaims",
                  "Lease reclaims recorded in the lease table.").set(
            status.reclaims)

    def finalize(self, store: ResultStore) -> MergeStats:
        """Merge every registered worker store into *store* and register
        the campaign manifest there.

        Idempotent: cells already merged are skipped by content hash, and
        re-registering the identical manifest is the resume path.  Cells
        whose run raised have no result to merge: after the merge and the
        registration, :class:`LeaseError` names each with its error.
        """
        with LeaseTable(self.workdir) as table:
            worker_roots = table.worker_stores()
            failures = table.failures()
        sources = [ResultStore(root, create=False) for root in worker_roots]
        try:
            with obs.phase("merge", job=self.name,
                           sources=len(sources)):
                stats = merge_stores(store, sources)
        finally:
            for source in sources:
                source.close()
        if obs.enabled():
            obs.counter("repro_coordinator_merged_cells_total",
                        "Result rows copied by coordinator merges.").inc(
                stats.copied)
        resume = store.campaign_info(self.name) is not None
        store.register_campaign(self.name, self.suite_name,
                                self.manifest_rows(), resume=resume)
        self._finish_trace()
        if failures:
            raise LeaseError(
                f"job {self.name!r}: {len(failures)} cell(s) failed: "
                + "; ".join(f"cell {position} ({group}): {error}"
                            for position, group, error in failures))
        return stats

    def _finish_trace(self) -> None:
        """Close out the job trace: emit the root span, release the sink.

        The root span is written last (its ids were minted at prepare
        time) so worker spans are never orphans in the merged tree; the
        coordinator's own timeline file is only closed if prepare()
        installed it — an externally installed sink stays untouched.
        """
        if self._trace_context is not None and obs.timeline_active():
            spans.emit_root_span(
                self._trace_context, "job",
                start_unix=self._trace_minted_unix or time.time(),
                job=self.name, cells=len(self.items))
        self._trace_context = None
        if self._own_timeline is not None:
            obs.set_timeline(None)
            self._own_timeline.close()
            self._own_timeline = None

    # ------------------------------------------------------------------ #
    def serve(
        self,
        store: Union[ResultStore, str, Path],
        *,
        poll_interval: float = 0.5,
        timeout: Optional[float] = None,
        on_status: Optional[StatusCallback] = None,
    ) -> CoordinatorReport:
        """The full lifecycle: prepare, wait for workers, merge, register."""
        started = time.perf_counter()
        self.prepare()
        status = self.wait(poll_interval=poll_interval, timeout=timeout,
                           on_status=on_status)
        if isinstance(store, (str, Path)):
            with ResultStore(store) as handle:
                merge = self.finalize(handle)
                store_root = handle.root
        else:
            merge = self.finalize(store)
            store_root = store.root
        with LeaseTable(self.workdir) as table:
            worker_roots = tuple(table.worker_stores())
        return CoordinatorReport(
            name=self.name,
            workdir=self.workdir,
            store_root=store_root,
            status=status,
            merge=merge,
            worker_stores=worker_roots,
            elapsed_seconds=time.perf_counter() - started,
        )
