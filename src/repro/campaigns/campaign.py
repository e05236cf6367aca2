"""Resumable campaign execution over a persistent result store.

A :class:`Campaign` binds a declarative
:class:`~repro.experiments.batch.ScenarioSuite` to a
:class:`~repro.campaigns.store.ResultStore`:

* the suite is expanded into *cells*, each content-addressed by
  :func:`~repro.campaigns.hashing.scenario_cell_key`;
* cells already in the store are **skipped** (a store hit — never
  recomputed, whether they came from a previous run of this campaign, a
  killed run, or an entirely different campaign that happened to cover the
  same configuration);
* the remainder runs in one
  :class:`~repro.experiments.batch.BatchRunner` pass (``parallel=N`` fans
  it over one process pool), each finished run is packed where it finished
  (:meth:`~repro.campaigns.store.ResultStore.pack`, which derives the cell
  key from the canonical form it writes) and the packed cells
  are persisted through a small flush buffer (:data:`_PERSIST_FLUSH_EVERY`
  cells batched into one
  :meth:`~repro.campaigns.store.ResultStore.put_many` transaction), so a
  SIGKILL loses at most the simulations in flight plus one buffer's worth
  of finished ones;
* re-running the same campaign resumes exactly where it stopped: the cells
  persisted before the kill are hits, and only the missing ones execute.

Because runs are bit-determined by their scenario, aggregates queried from
the store are bit-identical to a single-shot in-memory sweep of the same
suite — the test suite asserts this float-for-float.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from .. import obs
from ..experiments.batch import (
    BatchFailure,
    BatchRunner,
    ScenarioSuite,
    SuiteItem,
    normalise_suite,
)
from ..experiments.config import Scenario
from ..experiments.runner import ScenarioResult
from .hashing import scenario_cell_key
from .store import PackedCell, ResultStore, StoredRow

#: ``progress(done, total, item)`` over the *pending* (not cached) cells.
ProgressCallback = Callable[[int, int, SuiteItem], None]

#: Packed cells buffered before a :meth:`ResultStore.put_many` flush.
#: Small on purpose: a SIGKILL loses at most the simulations in flight
#: plus this many already-finished ones, while the batch write amortises
#: the per-cell index commit (one transaction instead of eight).
_PERSIST_FLUSH_EVERY = 8


def _pack_cell(_item: SuiteItem, result: ScenarioResult) -> PackedCell:
    """The campaign's batch ``reduce``: all that is kept of a finished run,
    and all a pool worker ships back."""
    return ResultStore.pack(result)


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one :meth:`Campaign.run` invocation.

    The counters are the resume guarantee made measurable: ``cached`` cells
    were answered by the store without simulating, ``executed`` cells ran;
    running a complete campaign again must report ``executed == 0``.
    """

    name: str
    store_root: Path
    items: tuple[SuiteItem, ...]
    cell_keys: tuple[str, ...]
    cached: int
    executed: int
    duplicates: int
    failures: tuple[BatchFailure, ...]
    parallel: int
    elapsed_seconds: float

    @property
    def total(self) -> int:
        """Number of scheduled cells (suite positions)."""
        return len(self.items)

    @property
    def complete(self) -> bool:
        """Whether every cell now has a stored result."""
        return not self.failures

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        return (
            f"campaign {self.name!r}: {self.total} cell(s) — "
            f"{self.cached} cached, {self.executed} executed, "
            f"{self.duplicates} duplicate(s), {len(self.failures)} failed "
            f"({self.elapsed_seconds:.2f}s, parallel={self.parallel})"
        )


class Campaign:
    """One named, resumable sweep over a result store.

    Parameters
    ----------
    store:
        The persistent store results are read from / written to.
    suite:
        A :class:`ScenarioSuite`, pre-built :class:`SuiteItem` sequence, or
        iterable of scenarios (each its own group).
    name:
        Campaign name recorded in the store (defaults to the suite name).
        Reusing a name requires ``resume=True`` on :meth:`run` and an
        identical suite expansion.
    parallel:
        Worker processes of the one batch pass (see :class:`BatchRunner`).
    worker_plugins:
        Modules each worker imports first (third-party registrations).
    """

    def __init__(
        self,
        store: ResultStore,
        suite: Union[ScenarioSuite, Iterable[Scenario], Sequence[SuiteItem]],
        *,
        name: Optional[str] = None,
        parallel: int = 1,
        worker_plugins: Sequence[str] = (),
    ) -> None:
        self.store = store
        self.suite_name, self.items = normalise_suite(suite)
        self.name = name or self.suite_name
        if parallel < 1:
            raise ValueError("parallel must be at least 1")
        self.parallel = parallel
        self.worker_plugins = tuple(worker_plugins)

    # ------------------------------------------------------------------ #
    def cell_keys(self) -> tuple[str, ...]:
        """Content address of every scheduled cell, in suite order."""
        return tuple(scenario_cell_key(item.scenario) for item in self.items)

    def run(
        self,
        *,
        resume: bool = False,
        recompute: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> CampaignReport:
        """Execute (or resume) the campaign; see the module docs.

        ``recompute=True`` ignores and overwrites stored cells — the escape
        hatch after a code change that deliberately alters results without
        changing scenarios (the hash cannot see code).  When a trace
        context is active, the whole run becomes one ``campaign`` span and
        the expand/execute/persist phases nest under it.
        """
        run_cm = obs.span("campaign", campaign=self.name,
                          cells=len(self.items)) \
            if obs.tracing_active() else nullcontext()
        with run_cm:
            return self._run(resume=resume, recompute=recompute,
                             progress=progress)

    def _run(
        self,
        *,
        resume: bool,
        recompute: bool,
        progress: Optional[ProgressCallback],
    ) -> CampaignReport:
        started = time.perf_counter()
        with obs.phase("expand", campaign=self.name,
                       cells=len(self.items)):
            keys = self.cell_keys()
            self.store.register_campaign(
                self.name,
                self.suite_name,
                [(item.index, item.group, key)
                 for item, key in zip(self.items, keys)],
                resume=resume or recompute,
            )

            pending: list[SuiteItem] = []
            seen: set[str] = set()
            cached = 0
            duplicates = 0
            for item, key in zip(self.items, keys):
                # Duplicate positions are classified first so the counters
                # are stable across runs: a cell scheduled twice is always
                # 1 cached-or-executed + 1 duplicate, whether or not it was
                # already stored.
                if key in seen:
                    duplicates += 1
                    continue
                seen.add(key)
                if not recompute and self.store.contains(key):
                    cached += 1
                    continue
                pending.append(item)

        buffered: list[PackedCell] = []

        def flush_buffered() -> None:
            if not buffered:
                return
            with obs.phase("persist", campaign=self.name,
                           cells=len(buffered)):
                self.store.put_many(buffered)
            buffered.clear()

        def persist(_item: SuiteItem, cell: PackedCell) -> None:
            buffered.append(cell)
            if len(buffered) >= _PERSIST_FLUSH_EVERY:
                flush_buffered()

        runner = BatchRunner(
            parallel=self.parallel,
            progress=progress,
            reduce=_pack_cell,
            on_result=persist,
            worker_plugins=self.worker_plugins,
        )
        try:
            with obs.phase("execute", campaign=self.name, cells=len(pending)):
                failures = runner.run(pending).failures
        finally:
            # Results buffered when the pass ends (or dies) must land
            # before anything else happens — the completion counters and
            # the resume guarantee both read straight off the store.
            flush_buffered()

        if obs.enabled():
            cells = obs.counter("repro_campaign_cells_total",
                                "Campaign cells by classification.",
                                ("outcome",))
            cells.inc(cached, outcome="cached")
            cells.inc(len(pending) - len(failures), outcome="executed")
            cells.inc(duplicates, outcome="duplicate")
            cells.inc(len(failures), outcome="failed")
        return CampaignReport(
            name=self.name,
            store_root=self.store.root,
            items=self.items,
            cell_keys=keys,
            cached=cached,
            executed=len(pending) - len(failures),
            duplicates=duplicates,
            failures=failures,
            parallel=self.parallel,
            elapsed_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    def rows(self) -> list[Optional[StoredRow]]:
        """Stored rows for every scheduled cell (suite order; ``None`` for
        cells not yet computed)."""
        return [self.store.get(key, count=False) for key in self.cell_keys()]


def run_campaign(
    store: Union[ResultStore, str, Path],
    suite: Union[ScenarioSuite, Iterable[Scenario], Sequence[SuiteItem]],
    *,
    name: Optional[str] = None,
    parallel: int = 1,
    resume: bool = False,
    recompute: bool = False,
    worker_plugins: Sequence[str] = (),
    progress: Optional[ProgressCallback] = None,
) -> CampaignReport:
    """One-call convenience wrapper: open/create the store and run.

    When *store* is a path, the store handle is closed before returning.
    """
    if isinstance(store, (str, Path)):
        with ResultStore(store) as handle:
            return Campaign(
                handle, suite, name=name, parallel=parallel,
                worker_plugins=worker_plugins,
            ).run(resume=resume, recompute=recompute, progress=progress)
    return Campaign(
        store, suite, name=name, parallel=parallel,
        worker_plugins=worker_plugins,
    ).run(resume=resume, recompute=recompute, progress=progress)
