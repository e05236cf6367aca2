"""The schedule explorer: fan controlled schedules out, check, shrink.

:class:`Explorer` drives the existing engine through a strategy's schedule
space (``explore_index = 0 .. budget-1``), executing over
:class:`~repro.experiments.batch.BatchRunner` (``parallel=N`` uses the
process pool), deduplicating executions by decision-trace hash, checking
:func:`~repro.analysis.properties.check_urb_properties` on every run, and
turning each unique violating schedule into a replayable, ddmin-shrunk
:class:`Counterexample`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from .. import obs
from ..analysis.properties import (
    UrbVerdict,
    check_urb_properties,
    violation_signature,
)
from ..experiments.batch import BatchRunner
from ..experiments.config import Scenario
from ..experiments.runner import ScenarioResult, build_engine
from ..registry import strategies
from ..simulation.engine import SimulationResult, hash_decisions
from .controller import Decision, ReplayController
from .shrink import DEFAULT_MAX_TESTS, ddmin

#: ``progress(done, total, item)`` forwarded to the batch runner.
ProgressCallback = Callable[[int, int, object], None]

#: The three checked properties, in report order.
PROPERTY_NAMES = ("Validity", "Uniform Agreement", "Uniform Integrity")


@dataclass
class Counterexample:
    """One unique violating schedule, optionally shrunk to a minimal repro."""

    scenario: Scenario
    strategy: str
    schedule_index: int
    seed: int
    schedule_hash: str
    decisions: tuple[Decision, ...]
    violations: tuple[str, ...]
    signature: tuple[str, ...]
    shrunk_decisions: Optional[tuple[Decision, ...]] = None
    shrunk_hash: Optional[str] = None
    shrunk_verified: bool = False
    shrink_tests: int = 0
    artifact_path: Optional[Path] = None

    def describe(self) -> str:
        """One-line summary used by the CLI and reports."""
        shrunk = (
            f", shrunk {len(self.decisions)}->{len(self.shrunk_decisions)} "
            f"decisions ({'verified' if self.shrunk_verified else 'UNVERIFIED'})"
            if self.shrunk_decisions is not None else ""
        )
        return (
            f"schedule {self.schedule_hash} ({self.strategy}"
            f"#{self.schedule_index}, seed={self.seed}): "
            f"violates {', '.join(self.signature)}{shrunk}"
        )


@dataclass(frozen=True)
class ExplorationReport:
    """Aggregate outcome of one exploration session."""

    scenario: Scenario
    strategy: str
    budget: int
    schedules_run: int
    unique_schedules: int
    duplicate_schedules: int
    property_violations: dict[str, int]
    counterexamples: tuple[Counterexample, ...]
    failures: tuple[str, ...]
    elapsed_seconds: float
    parallel: int
    shrink_replays: int = 0

    @property
    def ok(self) -> bool:
        """No violations and every scheduled run executed."""
        return not self.counterexamples and not self.failures

    @property
    def schedules_per_sec(self) -> float:
        """Exploration throughput (the benchmarked quantity)."""
        if self.elapsed_seconds <= 0:
            return float(self.schedules_run)
        return self.schedules_run / self.elapsed_seconds

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"explore({self.strategy}) on {self.scenario.describe()}",
            f"  {self.schedules_run}/{self.budget} schedules run "
            f"({self.unique_schedules} unique, "
            f"{self.duplicate_schedules} duplicates), "
            f"parallel={self.parallel}, "
            f"{self.schedules_per_sec:.1f} schedules/s",
        ]
        # Standard properties first (in report order), then anything extra a
        # future verdict might carry.
        names = list(PROPERTY_NAMES) + [
            name for name in self.property_violations
            if name not in PROPERTY_NAMES
        ]
        for name in names:
            count = self.property_violations.get(name, 0)
            status = "OK" if count == 0 else f"{count} violating schedule(s)"
            lines.append(f"  {name}: {status}")
        for counterexample in self.counterexamples:
            lines.append(f"  COUNTEREXAMPLE {counterexample.describe()}")
        for failure in self.failures:
            lines.append(f"  FAILED {failure}")
        return "\n".join(lines)


def replay_decisions(
    scenario: Scenario, decisions: Sequence[Decision]
) -> tuple[SimulationResult, UrbVerdict]:
    """Re-execute *scenario* under a recorded decision trace.

    The scenario's own ``explore_strategy`` is cleared (the trace, not the
    strategy, drives the run) and points past the end of the trace fall back
    to the seeded channel models, so partial traces replay deterministically.
    """
    clean = scenario
    if scenario.explore_strategy is not None:
        clean = replace(scenario, explore_strategy=None, explore_index=0)
    controller = ReplayController(tuple(decisions))
    simulation = build_engine(clean, controller=controller).run()
    return simulation, check_urb_properties(simulation)


def replay_counterexample(
    path: str | Path, *, shrunk: bool = True
) -> tuple[SimulationResult, UrbVerdict]:
    """Replay a serialised counterexample artifact (shrunk trace when
    available unless *shrunk* is false)."""
    from .serialize import load_counterexample

    data = load_counterexample(path)
    decisions = data["decisions"]
    if shrunk and data.get("shrunk_decisions") is not None:
        decisions = data["shrunk_decisions"]
    return replay_decisions(data["scenario"], decisions)


def _digest(_item: object,
            result: ScenarioResult) -> tuple[str, Optional[Counterexample]]:
    """The batch's ``reduce``: all the explorer keeps of a schedule is its
    hash and, if it violates a property, its counterexample.  Of the
    result's analyses it reads the verdict, so a schedule pays for no other."""
    provenance = result.simulation.schedule
    assert provenance is not None
    if result.verdict.all_hold:
        return provenance.schedule_hash, None
    return provenance.schedule_hash, Counterexample(
        scenario=result.scenario,
        strategy=provenance.strategy,
        schedule_index=provenance.schedule_index,
        seed=provenance.seed,
        schedule_hash=provenance.schedule_hash,
        decisions=tuple(provenance.decisions),
        violations=tuple(result.verdict.violations()),
        signature=violation_signature(result.verdict),
    )


@dataclass
class Explorer:
    """Adversarial schedule search over one base scenario.

    Parameters
    ----------
    scenario:
        The configuration under test.  Its ``explore_*`` fields are
        overwritten per schedule.
    strategy:
        Name of a registered exploration strategy.
    budget:
        Maximum schedules to run (capped by the strategy's schedule count
        when it is enumerative).
    parallel:
        Worker processes for the batch fan-out (``1`` = in-process).
    shrink:
        Whether violating schedules are ddmin-minimised.
    max_shrink_tests:
        Replay budget per counterexample during shrinking.
    artifacts_dir:
        When set, every counterexample is serialised there as JSON.
    store:
        When set, every counterexample is additionally persisted as a
        first-class artifact of a :class:`~repro.campaigns.ResultStore`
        (anything exposing ``put_counterexample(counterexample)`` works).
    worker_plugins:
        Modules each worker imports first (third-party registrations).
    """

    scenario: Scenario
    strategy: str = "random_walk"
    budget: int = 100
    parallel: int = 1
    shrink: bool = True
    max_shrink_tests: int = DEFAULT_MAX_TESTS
    artifacts_dir: Optional[Path] = None
    store: Optional[object] = None
    worker_plugins: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if not self.scenario.trace_enabled:
            # Every URB property checker reads the trace; with recording
            # disabled all three verdicts hold vacuously (checked=0) and the
            # report would claim "OK" without having checked anything.
            raise ValueError(
                "exploration requires trace_enabled=True: the URB property "
                "checkers are trace-driven and would pass vacuously"
            )
        strategies.get(self.strategy)

    # ------------------------------------------------------------------ #
    def schedule_budget(self) -> int:
        """The effective number of schedules (budget ∩ strategy space)."""
        spec = strategies.get(self.strategy)
        if spec.schedule_count is not None:
            space = spec.schedule_count(self.scenario)
            if space == 0:
                # Surface the strategy's own explanation of why the space is
                # empty (e.g. crash_points on a detector-using algorithm).
                spec.factory(self.scenario, 0)
                raise ValueError(
                    f"strategy {self.strategy!r} has no schedules for this "
                    "scenario"
                )
            return min(self.budget, space)
        return self.budget

    def run(self, progress: Optional[ProgressCallback] = None) -> ExplorationReport:
        """Explore and return the aggregated report."""
        started = time.perf_counter()
        total = self.schedule_budget()
        variants = [
            replace(self.scenario, explore_strategy=self.strategy,
                    explore_index=index)
            for index in range(total)
        ]
        runner = BatchRunner(
            parallel=self.parallel,
            progress=progress,
            reduce=_digest,
            worker_plugins=tuple(self.worker_plugins),
        )
        suite = runner.run(variants)

        seen_hashes: set[str] = set()
        duplicates = 0
        property_violations: dict[str, int] = {name: 0 for name in PROPERTY_NAMES}
        counterexamples: list[Counterexample] = []
        shrink_replays = 0
        for schedule_hash, counterexample in suite.results:
            if schedule_hash in seen_hashes:
                duplicates += 1
                continue
            seen_hashes.add(schedule_hash)
            if counterexample is not None:
                for name in counterexample.signature:
                    property_violations[name] = property_violations.get(name, 0) + 1
                counterexamples.append(counterexample)

        if self.shrink:
            for counterexample in counterexamples:
                shrink_replays += self._shrink(counterexample)

        if self.artifacts_dir is not None:
            from .serialize import write_counterexample

            for counterexample in counterexamples:
                counterexample.artifact_path = write_counterexample(
                    counterexample, self.artifacts_dir
                )

        if self.store is not None:
            for counterexample in counterexamples:
                self.store.put_counterexample(counterexample)

        report = ExplorationReport(
            scenario=self.scenario,
            strategy=self.strategy,
            budget=total,
            schedules_run=len(suite.results),
            unique_schedules=len(seen_hashes),
            duplicate_schedules=duplicates,
            property_violations=property_violations,
            counterexamples=tuple(counterexamples),
            failures=tuple(f.describe() for f in suite.failures),
            elapsed_seconds=time.perf_counter() - started,
            parallel=self.parallel,
            shrink_replays=shrink_replays,
        )
        self._record_obs(report)
        return report

    def _record_obs(self, report: ExplorationReport) -> None:
        """Mirror one exploration into the obs registry and timeline."""
        if obs.enabled():
            schedules = obs.counter("repro_explore_schedules_total",
                                    "Explored schedules by uniqueness.",
                                    ("kind",))
            schedules.inc(report.unique_schedules, kind="unique")
            schedules.inc(report.duplicate_schedules, kind="duplicate")
            violations = obs.counter("repro_explore_violations_total",
                                     "Property violations found while "
                                     "exploring.", ("property",))
            for name, count in sorted(report.property_violations.items()):
                violations.inc(count, property=name)
            obs.gauge("repro_explore_schedules_per_sec",
                      "Throughput of the last exploration.").set(
                report.schedules_per_sec)
            obs.gauge("repro_explore_dedup_ratio",
                      "Unique/run ratio of the last exploration.").set(
                report.unique_schedules / report.schedules_run
                if report.schedules_run else 1.0)
        if obs.timeline_active():
            obs.emit("explore.report", strategy=report.strategy,
                     schedules_run=report.schedules_run,
                     unique=report.unique_schedules,
                     duplicates=report.duplicate_schedules,
                     violations=sum(report.property_violations.values()),
                     counterexamples=len(report.counterexamples),
                     elapsed_seconds=report.elapsed_seconds)

    # ------------------------------------------------------------------ #
    def _shrink(self, counterexample: Counterexample) -> int:
        """ddmin *counterexample* in place; returns the replays spent."""
        signature = counterexample.signature

        def failing(candidate: list[Decision]) -> bool:
            _, verdict = replay_decisions(counterexample.scenario, candidate)
            return violation_signature(verdict) == signature

        # Sanity: the recorded trace must reproduce its own violation before
        # any reduction is trusted (it does by construction — replay is the
        # same deterministic engine — but a cheap guard beats a wrong repro).
        if not failing(list(counterexample.decisions)):
            counterexample.shrink_tests = 1
            return 1
        minimal, tests = ddmin(
            list(counterexample.decisions), failing,
            max_tests=self.max_shrink_tests,
        )
        counterexample.shrunk_decisions = tuple(minimal)
        counterexample.shrunk_hash = hash_decisions(minimal)
        counterexample.shrunk_verified = failing(minimal)
        counterexample.shrink_tests = tests + 2
        return tests + 2


def explore(
    scenario: Scenario,
    strategy: str = "random_walk",
    *,
    budget: int = 100,
    parallel: int = 1,
    shrink: bool = True,
    artifacts_dir: Optional[str | Path] = None,
    store: Optional[object] = None,
    worker_plugins: Sequence[str] = (),
    progress: Optional[ProgressCallback] = None,
) -> ExplorationReport:
    """One-call convenience wrapper around :class:`Explorer`."""
    explorer = Explorer(
        scenario=scenario,
        strategy=strategy,
        budget=budget,
        parallel=parallel,
        shrink=shrink,
        artifacts_dir=None if artifacts_dir is None else Path(artifacts_dir),
        store=store,
        worker_plugins=worker_plugins,
    )
    return explorer.run(progress=progress)
