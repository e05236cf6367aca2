"""Declarative scenario suites and the parallel batch runner.

This module is the one way to run many scenarios; it adds the suite layer
on top of :func:`run_scenario`:

* :class:`ScenarioSuite` — declarative construction of a batch: explicit
  scenarios, one-field sweeps, cross-product grids, and seed fan-out, each
  tagged with a *group* label for aggregation.
* :class:`BatchRunner` — executes a suite in-process (``parallel=1``) or on a
  ``concurrent.futures.ProcessPoolExecutor`` (``parallel=N``) with
  deterministic result ordering, progress callbacks and failure isolation:
  one crashed scenario (or worker process) records a :class:`BatchFailure`
  instead of sinking the whole suite.
* :class:`SuiteResult` — the ordered outcomes, grouped by label with
  :meth:`SuiteResult.groups`.

Because every simulated run is fully determined by its scenario (fields +
seed), the parallel path produces results identical to the sequential one —
a property the test suite asserts byte-for-byte.

Custom components and worker processes
--------------------------------------
Scenarios referring to third-party registry entries (see
:mod:`repro.registry`) run fine with ``parallel=1``.  With ``parallel=N`` the
worker *processes* must perform the same registrations; pass the module names
that register them as ``worker_plugins`` — each worker imports them once at
startup::

    suite.run(parallel=4, worker_plugins=("myproject.protocols",))
"""

from __future__ import annotations

import itertools
import importlib
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from .. import obs
from .config import Scenario
from .runner import ScenarioResult, run_scenario

#: Called after each completed item: ``progress(done, total, item)``.
ProgressCallback = Callable[[int, int, "SuiteItem"], None]

#: ``reduce(item, result) -> kept``, applied where the run finished (a pool
#: worker included): the result dies there and only *kept* travels (the
#: explorer's digest, a campaign's packed cell).
ReduceFn = Callable[["SuiteItem", "ScenarioResult"], Any]

#: ``on_result(item, kept)``, called in the calling process as each item
#: completes; the batch's outcome for the item is what it returns.
ResultCallback = Callable[["SuiteItem", Any], Any]

@dataclass(frozen=True)
class SuiteItem:
    """One scheduled run of a suite: a scenario plus its position and group."""

    index: int
    group: str
    scenario: Scenario


@dataclass(frozen=True)
class BatchFailure:
    """One isolated failure inside a batch run; *index* is the failed
    item's :attr:`SuiteItem.index` (its suite position)."""

    index: int
    group: str
    scenario: Scenario
    error: str
    details: str = ""

    def describe(self) -> str:
        """One-line summary used in reports and exceptions."""
        return f"item {self.index} ({self.group}): {self.error}"


class BatchExecutionError(RuntimeError):
    """Raised by :meth:`SuiteResult.raise_on_failure` when any item failed."""

    def __init__(self, failures: Sequence[BatchFailure]) -> None:
        self.failures = tuple(failures)
        lines = []
        for failure in self.failures:
            lines.append(f"  - {failure.describe()}")
            if failure.details:
                lines.extend(f"      {line}"
                             for line in failure.details.rstrip().splitlines())
        body = "\n".join(lines)
        super().__init__(
            f"{len(self.failures)} scenario(s) failed in the batch:\n{body}"
        )


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SuiteResult:
    """Everything a finished batch produced, in schedule order.

    ``outcomes[i]`` (the result, or what ``reduce`` / ``on_result`` made
    of it) corresponds to ``items[i]`` whatever order workers finished in;
    ``None`` marks a failed item, whose error is in :attr:`failures`.
    """

    name: str
    items: tuple[SuiteItem, ...]
    outcomes: tuple[Optional[ScenarioResult], ...]
    failures: tuple[BatchFailure, ...]
    parallel: int
    elapsed_seconds: float

    def __len__(self) -> int:
        return len(self.items)

    @property
    def ok(self) -> bool:
        """Whether every item completed without error."""
        return not self.failures

    @property
    def results(self) -> tuple[ScenarioResult, ...]:
        """Successful results in schedule order (failed items skipped)."""
        return tuple(r for r in self.outcomes if r is not None)

    def raise_on_failure(self) -> "SuiteResult":
        """Return ``self``, or raise :class:`BatchExecutionError` if anything failed."""
        if self.failures:
            raise BatchExecutionError(self.failures)
        return self

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def groups(self) -> dict[str, list[ScenarioResult]]:
        """Successful results keyed by group, groups in first-seen order."""
        grouped: dict[str, list[ScenarioResult]] = {}
        for item, outcome in zip(self.items, self.outcomes):
            bucket = grouped.setdefault(item.group, [])
            if outcome is not None:
                bucket.append(outcome)
        return grouped

    def describe(self) -> str:
        """Multi-line human-readable summary of the batch."""
        lines = [
            f"suite {self.name!r}: {len(self.results)}/{len(self.items)} runs ok, "
            f"{len(self.failures)} failed, parallel={self.parallel}, "
            f"wall-clock {self.elapsed_seconds:.2f}s"
        ]
        for group, results in self.groups().items():
            lines.append(f"  {group}: {len(results)} run(s)")
        for failure in self.failures:
            lines.append(f"  FAILED {failure.describe()}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# suite construction
# --------------------------------------------------------------------------- #
class ScenarioSuite:
    """A declaratively constructed batch of scenarios.

    Builder methods return ``self`` so suites read as a single chained
    expression::

        suite = (
            ScenarioSuite("loss-sweep")
            .add_sweep(base, "loss", [LossSpec.bernoulli(p) for p in grid],
                       groups=[f"p={p}" for p in grid])
            .with_seeds(5)
        )
        result = suite.run(parallel=4)

    Seed fan-out (:meth:`with_seeds`) is applied at :meth:`build` time: every
    declared scenario is replicated once per seed, keeping its group label,
    so aggregation naturally averages over seeds.
    """

    def __init__(self, name: str = "suite",
                 scenarios: Iterable[Scenario] = ()) -> None:
        self.name = name
        self._entries: list[tuple[str, Scenario]] = []
        self._seeds: Union[int, Sequence[int], None] = None
        self.add_many(scenarios)

    # ------------------------------------------------------------------ #
    def add(self, scenario: Scenario, *, group: Optional[str] = None) -> "ScenarioSuite":
        """Add one scenario (group defaults to the scenario's name)."""
        self._entries.append((group or scenario.name, scenario))
        return self

    def add_many(self, scenarios: Iterable[Scenario], *,
                 group: Optional[str] = None) -> "ScenarioSuite":
        """Add several scenarios sharing one optional group label."""
        for scenario in scenarios:
            self.add(scenario, group=group)
        return self

    def add_sweep(
        self,
        base: Scenario,
        field_name: str,
        values: Iterable[Any],
        *,
        groups: Optional[Sequence[str]] = None,
        scenario_builder: Optional[Callable[[Scenario, Any], Scenario]] = None,
    ) -> "ScenarioSuite":
        """Vary one scenario field over *values* (one group per value).

        *scenario_builder* overrides the default ``base.with_(field=value)``
        for sweeps that must touch several fields at once (e.g. a crash-count
        sweep also rewriting the crash map).
        """
        values = list(values)
        if groups is not None and len(groups) != len(values):
            raise ValueError("groups must match values one-to-one")
        for position, value in enumerate(values):
            if scenario_builder is not None:
                scenario = scenario_builder(base, value)
            else:
                scenario = base.with_(**{field_name: value})
            group = (groups[position] if groups is not None
                     else f"{field_name}={value}")
            self.add(scenario, group=group)
        return self

    def add_grid(self, base: Scenario,
                 **dimensions: Iterable[Any]) -> "ScenarioSuite":
        """Cross-product sweep over several scenario fields.

        ``add_grid(base, loss=[a, b], n_processes=[5, 9])`` declares four
        scenarios, grouped ``"loss=a,n_processes=5"`` etc., in deterministic
        row-major order.
        """
        names = list(dimensions)
        for combo in itertools.product(*(list(dimensions[n]) for n in names)):
            assignment: Mapping[str, Any] = dict(zip(names, combo))
            group = ",".join(f"{k}={v}" for k, v in assignment.items())
            self.add(base.with_(**assignment), group=group)
        return self

    def with_seeds(self, seeds: Union[int, Sequence[int]]) -> "ScenarioSuite":
        """Fan every declared scenario out over several seeds.

        An integer ``k`` replicates each scenario under seeds
        ``scenario.seed .. scenario.seed + k - 1``; an explicit sequence is
        used verbatim for every scenario.
        """
        if isinstance(seeds, int) and seeds < 1:
            raise ValueError("the number of replications must be positive")
        self._seeds = seeds
        return self

    # ------------------------------------------------------------------ #
    def build(self) -> tuple[SuiteItem, ...]:
        """Materialise the schedule: entries × seeds, in declaration order."""
        items: list[SuiteItem] = []
        for group, scenario in self._entries:
            if self._seeds is None:
                expanded = [scenario]
            elif isinstance(self._seeds, int):
                expanded = [scenario.with_seed(scenario.seed + i)
                            for i in range(self._seeds)]
            else:
                expanded = [scenario.with_seed(s) for s in self._seeds]
            for variant in expanded:
                items.append(SuiteItem(index=len(items), group=group,
                                       scenario=variant))
        return tuple(items)

    def __len__(self) -> int:
        return len(self.build())

    def run(
        self,
        parallel: int = 1,
        *,
        progress: Optional[ProgressCallback] = None,
        on_result: Optional[ResultCallback] = None,
        worker_plugins: Sequence[str] = (),
        fail_fast: bool = False,
    ) -> SuiteResult:
        """Execute the suite (see :class:`BatchRunner`)."""
        runner = BatchRunner(parallel=parallel, progress=progress,
                             on_result=on_result,
                             worker_plugins=worker_plugins, fail_fast=fail_fast)
        return runner.run(self)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
def normalise_suite(
    suite: Union[ScenarioSuite, Iterable[Scenario], Sequence[SuiteItem]],
) -> tuple[str, tuple[SuiteItem, ...]]:
    """``(name, items)`` of anything a batch accepts: a suite, pre-built
    items, or plain scenarios (each its own group)."""
    if isinstance(suite, ScenarioSuite):
        return suite.name, suite.build()
    materialised = list(suite)
    if all(isinstance(entry, SuiteItem) for entry in materialised):
        return "batch", tuple(materialised)  # type: ignore[arg-type]
    items = tuple(
        SuiteItem(index=i, group=scenario.name, scenario=scenario)
        for i, scenario in enumerate(materialised)  # type: ignore[arg-type]
    )
    return "batch", items


def _import_worker_plugins(plugins: Sequence[str]) -> None:
    """Pool initializer: perform third-party registrations in each worker."""
    for module_name in plugins:
        importlib.import_module(module_name)


def _cells_total() -> "obs.Counter":
    return obs.counter("repro_batch_cells_total",
                       "Batch cells recorded, by outcome.", ("status",))


def _cell_seconds() -> "obs.Histogram":
    return obs.histogram("repro_batch_cell_seconds",
                         "Wall-clock seconds per completed batch cell.")


def _in_flight() -> "obs.Gauge":
    return obs.gauge("repro_batch_in_flight",
                     "Batch cells submitted and not yet recorded.")


def _analysed(_item: SuiteItem, result: ScenarioResult) -> ScenarioResult:
    """The pool's ``reduce`` when the caller gave none: the whole result,
    analyses computed, so a worker does that work and not the parent."""
    result.verdict, result.quiescence, result.anonymity
    return result


def _execute_item(
    item: SuiteItem, reduce: Optional[ReduceFn] = None, *, isolate: bool = True,
) -> tuple[Any, Optional[float], Optional[str], str]:
    """Run one item and reduce it on the spot (top-level: must pickle):
    ``(kept, wall_time, error, details)``, any exception trapped into the
    last two unless *isolate* is false."""
    try:
        result = run_scenario(item.scenario)
        kept = result if reduce is None else reduce(item, result)
        return kept, result.wall_time, None, ""
    except Exception as exc:  # noqa: BLE001 - failure isolation by design
        if not isolate:
            raise
        return None, None, repr(exc), traceback.format_exc()


class BatchRunner:
    """Executes suites with optional process-level parallelism.

    One owner per result: with no ``reduce`` the returned
    :class:`SuiteResult` owns them all; with one, a result lives until
    ``reduce`` returns, in the process that ran it, so campaigns and
    explorations hold one finished run at a time and a pool pipe carries
    the reduced value only.

    Parameters
    ----------
    parallel:
        Worker processes.  ``1`` (default) runs everything in-process — no
        pickling, and registrations made by the calling process are visible.
        ``N > 1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`.
    progress:
        ``progress(done, total, item)`` called after each item completes (in
        completion order; ``done`` is monotonic).
    reduce:
        ``reduce(item, result) -> kept``, applied to every *successful*
        result where its run finished: in-process, or in the pool worker.
        Pure and picklable (a module-level function or a ``partial`` of
        one); an exception it raises is that item's failure.  ``None``
        keeps the whole result, its analyses computed by the pool worker.
    on_result:
        ``on_result(item, kept)`` called with what every *successful* item
        kept as soon as it is recorded (completion order, always in the
        calling process); the item's outcome is what it returns.  Campaigns
        persist through this hook so a killed batch loses at most the
        in-flight items.
    worker_plugins:
        Module names imported by every worker before running anything —
        the hook for third-party registry registrations (see module docs).
    fail_fast:
        Disable failure isolation: in-process runs let the original
        exception propagate unmodified (type, traceback and all); pool runs
        raise :class:`BatchExecutionError` (with the worker traceback in the
        message) as soon as a failure is observed.
    """

    def __init__(
        self,
        parallel: int = 1,
        *,
        progress: Optional[ProgressCallback] = None,
        reduce: Optional[ReduceFn] = None,
        on_result: Optional[ResultCallback] = None,
        worker_plugins: Sequence[str] = (),
        fail_fast: bool = False,
    ) -> None:
        if parallel < 1:
            raise ValueError("parallel must be at least 1")
        self.parallel = parallel
        self.progress = progress
        self.reduce = reduce
        self.on_result = on_result
        self.worker_plugins = tuple(worker_plugins)
        self.fail_fast = fail_fast

    # ------------------------------------------------------------------ #
    def run(
        self,
        suite: Union[ScenarioSuite, Iterable[Scenario], Sequence[SuiteItem]],
    ) -> SuiteResult:
        """Run *suite* and return the ordered :class:`SuiteResult`.

        Accepts a :class:`ScenarioSuite`, pre-built :class:`SuiteItem`
        sequences, or any iterable of scenarios (each its own group).
        """
        name, items = normalise_suite(suite)
        started = time.perf_counter()
        workers = min(self.parallel, len(items)) if items else 1
        if workers > 1:
            outcomes, failures = self._run_pool(items, workers)
        else:
            outcomes, failures = self._run_inline(items)
        return SuiteResult(
            name=name,
            items=items,
            outcomes=tuple(outcomes),
            failures=tuple(failures),
            parallel=workers,
            elapsed_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    def _record(self, outcomes: list, failures: list, items: Sequence[SuiteItem],
                position: int, kept: Any, wall_time: Optional[float],
                error: Optional[str], details: str) -> None:
        if obs.enabled():
            # Recording always happens in the calling process (inline and
            # pool paths both), so these series aggregate the whole batch
            # regardless of where the simulation itself ran.
            _cells_total().inc(status="failed" if error is not None
                               else "ok")
            if wall_time is not None:
                _cell_seconds().observe(wall_time)
        if error is not None:
            item = items[position]
            failures.append(BatchFailure(
                index=item.index, group=item.group, scenario=item.scenario,
                error=error, details=details,
            ))
        elif self.on_result is not None:
            kept = self.on_result(items[position], kept)
        outcomes[position] = kept

    def _run_inline(
        self, items: Sequence[SuiteItem]
    ) -> tuple[list[Any], list[BatchFailure]]:
        _import_worker_plugins(self.worker_plugins)
        outcomes: list[Any] = [None] * len(items)
        failures: list[BatchFailure] = []
        for position, item in enumerate(items):
            if obs.enabled():
                _in_flight().inc()
            try:
                # fail_fast: no isolation, the original exception (type,
                # traceback) propagates to the caller unmodified.
                self._record(outcomes, failures, items, position, *_execute_item(
                    item, self.reduce, isolate=not self.fail_fast))
            finally:
                if obs.enabled():
                    _in_flight().dec()
            if self.progress is not None:
                self.progress(position + 1, len(items), item)
        return outcomes, failures

    def _run_pool(
        self, items: Sequence[SuiteItem], workers: int
    ) -> tuple[list[Any], list[BatchFailure]]:
        outcomes: list[Any] = [None] * len(items)
        failures: list[BatchFailure] = []
        reduce = self.reduce or _analysed
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_import_worker_plugins,
            initargs=(self.worker_plugins,),
        ) as pool:
            pending = {
                pool.submit(_execute_item, item, reduce): (position, item)
                for position, item in enumerate(items)
            }
            done = 0
            if obs.enabled():
                _in_flight().inc(len(pending))
            try:
                for future in as_completed(pending):
                    # popped, or the future would keep its result alive
                    position, item = pending.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as exc:  # worker died (BrokenProcessPool)
                        outcome = (None, None, repr(exc),
                                   traceback.format_exc())
                    self._record(outcomes, failures, items, position,
                                 *outcome)
                    done += 1
                    if obs.enabled():
                        _in_flight().dec()
                    if failures and self.fail_fast:
                        for other in pending:
                            other.cancel()
                        raise BatchExecutionError(sorted(failures,
                                                         key=lambda f: f.index))
                    if self.progress is not None:
                        self.progress(done, len(items), item)
            finally:
                # Cancelled / never-completed submissions (fail_fast, a
                # crashed pool) must not leave the gauge dangling.
                if obs.enabled():
                    _in_flight().dec(len(items) - done)
        failures.sort(key=lambda f: f.index)
        return outcomes, failures
