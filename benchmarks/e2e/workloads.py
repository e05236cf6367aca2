"""The five benchmark workloads: inputs from a seed, one pass, its checks.

Every workload is a :class:`Workload` with three parts:

* ``build(seed, **sizes)`` makes the inputs (``Scenario`` objects and
  suites) from the seed alone.  The sizes are function arguments so the
  tests can run each workload tiny; the command line has no size flag.
* ``run_pass(inputs, workdir)`` is one timed pass into fresh state under
  *workdir*.  It calls the program only through public functions, looked up
  on their module at call time so the span wrappers of ``--trace 1`` see the
  same calls, and it checks every output before returning.
* ``warm_up(seed, workdir)`` is the rest of set-up: one tiny pass plus the
  checks that are too expensive to repeat on every pass.

Why these five, and which layer each one leans on, is recorded in
``BENCHMARK.json`` and in the README's interaction table; the section comments
below say which path each one takes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.analysis import properties
from repro.campaigns import campaign, hashing, reporting
from repro.campaigns.distributed import coordinator, leases, worker
from repro.campaigns.store import ResultStore
from repro.experiments import batch, runner
from repro.experiments.config import Scenario
from repro.experiments.parity import fingerprint
from repro.explore import explorer
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.simulation.metrics import MetricsCollector, MetricsLevel
from repro.simulation.tracing import TraceLevel, TraceRecorder

ENGINES = ("vectorized", "reference")
CAMPAIGN_NAME = "e2e"

#: ``(name, passed)`` correctness checks.
Checks = list[tuple[str, bool]]


@dataclass
class PassResult:
    """What one pass did, measured and checked."""

    #: Units of work behind ``ops_per_s`` and the seconds they took.
    ops: int
    ops_seconds: float
    #: ``(name, passed)`` for every correctness check of the pass.
    checks: Checks
    #: Units of work attempted (cells, engine runs, schedules) and failed.
    units: int
    unit_failures: int
    #: Simulated statistics: deterministic for a seed, pinned in golden.json.
    stats: dict[str, Any]
    #: Per-layer values only the workload itself can see (regions it timed,
    #: callback gaps, report fields); keyed by per-layer metric name.
    layer: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Any]
    run_pass: Callable[[Any, Path], PassResult]
    #: ``(seed, workdir) -> (checks, per-layer values measured in set-up)``.
    warm_up: Callable[[int, Path], tuple[Checks, dict[str, float]]]


def digest(value: Any) -> str:
    """Short stable digest of a JSON-friendly value."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _gap_metrics(gaps: list[float]) -> dict[str, float]:
    """Median and p99 of the gaps between per-cell completion callbacks."""
    if len(gaps) < 2:
        return {"batch.cell_p50_ms": 0.0, "batch.cell_p99_ms": 0.0}
    return {
        "batch.cell_p50_ms": statistics.median(gaps) * 1e3,
        "batch.cell_p99_ms": statistics.quantiles(gaps, n=100)[98] * 1e3,
    }


class _GapClock:
    """Progress callback recording the time between successive calls."""

    def __init__(self) -> None:
        self.gaps: list[float] = []
        self._last = time.perf_counter()

    def __call__(self, *_args: Any) -> None:
        now = time.perf_counter()
        self.gaps.append(now - self._last)
        self._last = now


# --------------------------------------------------------------------------- #
# engine workloads: one scenario, both engines, fingerprints compared
# --------------------------------------------------------------------------- #
def build_quiescence(seed: int, *, n: int = 24, burst: int = 4) -> Scenario:
    return Scenario(
        name="e2e-quiescence",
        algorithm="algorithm2",
        n_processes=n,
        seed=seed,
        loss=LossSpec.bernoulli(0.05),
        delay=DelaySpec.uniform(0.05, 0.5),
        workload="burst",
        metadata={"burst_size": burst},
        stop_when_quiescent=True,
        drain_grace_period=2.0,
        max_time=400.0,
    )


def build_flood(seed: int, *, n: int = 14, horizon: float = 6.0) -> Scenario:
    return Scenario(
        name="e2e-flood",
        algorithm="algorithm1",
        n_processes=n,
        seed=seed,
        loss=LossSpec.bernoulli(0.2),
        delay=DelaySpec.uniform(0.05, 0.5),
        workload="all_to_all",
        crashes={0: horizon * 0.3, 1: horizon * 0.7},
        max_time=horizon,
    )


def _engine_pass(scenario: Scenario, expect_stop: str) -> PassResult:
    checks: Checks = []
    prints: dict[str, dict[str, Any]] = {}
    events = 0
    vectorized_seconds = 0.0
    for engine in ENGINES:
        # Built as experiments/parity.py builds a parity run: protocol
        # observables only, so the batched path is allowed to run.
        built = runner.build_engine(scenario.with_(engine=engine))
        built.trace = TraceRecorder(enabled=True, level=TraceLevel.DELIVERIES)
        built.metrics = MetricsCollector(level=MetricsLevel.COUNTERS)
        started = time.perf_counter()
        result = built.run()
        elapsed = time.perf_counter() - started
        verdict = properties.check_urb_properties(result)
        checks.append((f"{engine}.urb_properties", verdict.all_hold))
        checks.append((f"{engine}.stop_reason",
                       result.stop_reason == expect_stop))
        if engine == "vectorized":
            events = result.event_stats.total
            vectorized_seconds = elapsed
            checks.append(("vectorized.batched",
                           built.dispatch_mode == "batched"
                           and built.consume_mode == "batched"))
        # Channel counters live on the network, not the result; the batched
        # path defers them and must land on the per-transmit totals.
        prints[engine] = fingerprint(result)
        prints[engine]["channel_stats"] = {
            f"{src}->{dst}": [channel.stats.attempts, channel.stats.delivered,
                              channel.stats.dropped,
                              channel.stats.forced_deliveries]
            for (src, dst), channel in sorted(built.network.channels.items())
        }
    checks.append(("engines.fingerprint_equal",
                   prints["vectorized"] == prints["reference"]))
    reference = prints["reference"]
    summary = reference["metrics"]
    attempts, _delivered, dropped, _forced = (
        sum(column) for column in zip(*reference["channel_stats"].values()))
    return PassResult(
        ops=events,
        ops_seconds=vectorized_seconds,
        checks=checks,
        units=len(ENGINES),
        unit_failures=0,
        stats={
            "events": sum(reference["event_stats"].values()),
            "sends": summary["total_sends"],
            "urb_deliveries": summary["deliveries"],
            "sim_final_time": reference["final_time"],
            "channel_attempts": attempts,
            "channel_dropped": dropped,
            "fingerprint": digest(reference),
        },
    )


def _engine_warm_up(build: Callable[..., Scenario], expect_stop: str,
                    **tiny: Any) -> Callable[[int, Path], tuple[Checks, dict]]:
    def warm_up(seed: int, _workdir: Path) -> tuple[Checks, dict]:
        return _checks_of(_engine_pass(build(seed, **tiny), expect_stop)), {}

    return warm_up


# --------------------------------------------------------------------------- #
# campaign_grid: every layer from hashing to store, default trace levels
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridInputs:
    suite: batch.ScenarioSuite
    cells: int
    #: ``(reference key, vectorized key)`` of every twin pair of cells.
    twins: tuple[tuple[str, str], ...]


def _campaign_base(algorithm: str, seed: int, **changes: Any) -> Scenario:
    """The default small scenario with the algorithm's natural stop rule
    (a default ``Scenario`` has none and would flood to its horizon)."""
    return runner.default_scenario(algorithm, name="e2e-cell", seed=seed,
                                   **changes)


def build_grid(seed: int, *, sizes: tuple[int, ...] = (5, 8),
               seeds: int = 2) -> GridInputs:
    suite = batch.ScenarioSuite("e2e-grid")
    for algorithm in ("algorithm1", "algorithm2"):
        suite.add_grid(
            _campaign_base(algorithm, seed),
            n_processes=list(sizes),
            loss=[LossSpec.none(), LossSpec.bernoulli(0.1),
                  LossSpec.bernoulli(0.3)],
            crashes=[{}, {0: 1.0, 1: 3.0}],
            engine=["reference", "vectorized"],
        )
    suite.with_seeds(seeds)
    items = suite.build()
    pairs: dict[str, dict[str, str]] = {}
    for item in items:
        scenario = item.scenario
        twin = hashing.scenario_cell_key(scenario.with_(engine="reference"))
        pairs.setdefault(twin, {})[scenario.engine] = \
            hashing.scenario_cell_key(scenario)
    return GridInputs(
        suite=suite,
        cells=len(items),
        twins=tuple((pair["reference"], pair["vectorized"])
                    for pair in pairs.values()),
    )


def _row_stats(rows: list, table: Any) -> dict[str, Any]:
    return {
        "cells": len(rows),
        "sends": sum(row.total_sends for row in rows),
        "urb_deliveries": sum(row.deliveries for row in rows),
        "sim_final_time": sum(row.final_time for row in rows),
        "table": digest([table.headers, table.rows]),
    }


def _blob_bytes(store_root: Path) -> int:
    return sum(path.stat().st_size for path in store_root.rglob("*.json.z"))


def _same_outcome(left: Any, right: Any) -> bool:
    """Whether two stored rows record the same verdicts and metrics."""
    neutral = {"cell_key": "", "created_at": 0.0, "wall_time": None}
    return (dataclasses.replace(left, **neutral)
            == dataclasses.replace(right, **neutral))


def _grid_pass(inputs: GridInputs, workdir: Path) -> PassResult:
    clock = _GapClock()
    with ResultStore(workdir / "store") as store:
        started = time.perf_counter()
        report = campaign.run_campaign(store, inputs.suite, name=CAMPAIGN_NAME,
                                       parallel=1, progress=clock)
        run_seconds = time.perf_counter() - started
        started = time.perf_counter()
        resumed = campaign.run_campaign(store, inputs.suite,
                                        name=CAMPAIGN_NAME, parallel=1,
                                        resume=True)
        resume_seconds = time.perf_counter() - started
        table = reporting.campaign_table(store, CAMPAIGN_NAME)
        rows = store.query(campaign=CAMPAIGN_NAME)
        by_key = {row.cell_key: row for row in rows}
        bad_rows = sum(1 for row in rows if not row.all_properties_hold)
        checks = [
            ("campaign.executed_all", report.executed == inputs.cells
             and not report.failures),
            ("campaign.rows_stored", len(rows) == inputs.cells),
            ("campaign.resume_executes_none", resumed.executed == 0
             and resumed.cached == inputs.cells and not resumed.failures),
            ("campaign.engine_twins_equal", all(
                ref in by_key and vec in by_key
                and _same_outcome(by_key[ref], by_key[vec])
                for ref, vec in inputs.twins)),
        ]
        return PassResult(
            ops=inputs.cells,
            ops_seconds=run_seconds,
            checks=checks,
            units=inputs.cells,
            unit_failures=len(report.failures) + bad_rows,
            stats=_row_stats(rows, table),
            layer={
                "store.resume_s": resume_seconds,
                "store.blob_bytes": _blob_bytes(store.root),
                **_gap_metrics(clock.gaps),
            },
        )


def _grid_warm_up(seed: int, workdir: Path) -> tuple[Checks, dict]:
    # n=5 keeps a correct majority under the two-crash pattern.
    tiny = build_grid(seed, sizes=(5,), seeds=1)
    return _checks_of(_grid_pass(tiny, workdir)), {}


# --------------------------------------------------------------------------- #
# campaign_leased: tiny cells, so leases, per-cell commits and merge dominate
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LeasedInputs:
    suite: batch.ScenarioSuite
    cells: int
    #: Ranges worker ``w0`` may take before ``w1`` finishes the job.
    first_worker_ranges: int


def build_leased(seed: int, *, sizes: tuple[int, ...] = (3, 4),
                 seeds: int = 50) -> LeasedInputs:
    suite = batch.ScenarioSuite("e2e-leased")
    for algorithm in ("algorithm1", "algorithm2"):
        suite.add_grid(
            _campaign_base(algorithm, seed, loss=LossSpec.bernoulli(0.1)),
            n_processes=list(sizes),
        )
    suite.with_seeds(seeds)
    cells = len(suite)
    ranges = -(-cells // leases.DEFAULT_RANGE_SIZE)
    return LeasedInputs(suite=suite, cells=cells,
                        first_worker_ranges=max(1, ranges // 2))


def _leased_pass(inputs: LeasedInputs, workdir: Path) -> PassResult:
    clock = _GapClock()
    job = workdir / "job"
    started = time.perf_counter()
    lead = coordinator.Coordinator(job, inputs.suite, name=CAMPAIGN_NAME)
    lead.prepare()
    first = worker.Worker(job, worker_id="w0").run(
        progress=clock, max_ranges=inputs.first_worker_ranges)
    second = worker.Worker(job, worker_id="w1").run(progress=clock)
    with ResultStore(workdir / "dest") as dest:
        merged = lead.finalize(dest)
        chain_seconds = time.perf_counter() - started
        table = reporting.campaign_table(dest, CAMPAIGN_NAME)
        rows = dest.query(campaign=CAMPAIGN_NAME)
        manifest = lead.manifest_rows()
        executed = first.cells_executed + second.cells_executed
        errors = first.errors + second.errors
        bad_rows = sum(1 for row in rows if not row.all_properties_hold)
        checks = [
            ("leased.executed_all", executed == inputs.cells and not errors
             and not first.ranges_abandoned + second.ranges_abandoned),
            ("leased.both_workers_ran", first.cells_executed > 0
             and second.cells_executed > 0),
            ("leased.merged_is_manifest",
             dest.campaign_cells(CAMPAIGN_NAME) == manifest
             and len(dest) == inputs.cells and len(rows) == inputs.cells
             and merged.copied == inputs.cells),
        ]
        return PassResult(
            ops=inputs.cells,
            ops_seconds=chain_seconds,
            checks=checks,
            units=inputs.cells,
            unit_failures=len(errors) + bad_rows,
            stats=_row_stats(rows, table),
            layer={
                "store.blob_bytes": _blob_bytes(dest.root),
                **_gap_metrics(clock.gaps),
            },
        )


def _leased_warm_up(seed: int, workdir: Path) -> tuple[Checks, dict]:
    """A tiny leased job, checked against a single-shot run of its suite."""
    tiny = build_leased(seed, sizes=(3,), seeds=8)
    leased = _leased_pass(tiny, workdir)
    with ResultStore(workdir / "single-shot") as store:
        campaign.run_campaign(store, tiny.suite, name=CAMPAIGN_NAME)
        table = reporting.campaign_table(store, CAMPAIGN_NAME)
    same = leased.stats["table"] == digest([table.headers, table.rows])
    return (_checks_of(leased)
            + [("leased.table_equals_single_shot", same)]), {}


# --------------------------------------------------------------------------- #
# explore_walk: the controlled (per-event) path
# --------------------------------------------------------------------------- #
EXPLORE_STRATEGIES = ("random_walk", "pct")
MUTANT_BUDGET = 150


@dataclass(frozen=True)
class ExploreInputs:
    scenario: Scenario
    budget: int


def build_explore(seed: int, *, n: int = 4, budget: int = 300) -> ExploreInputs:
    return ExploreInputs(
        scenario=Scenario(
            name="e2e-explore",
            algorithm="algorithm1",
            n_processes=n,
            seed=seed,
            max_time=120.0,
            stop_when_all_correct_delivered=True,
        ),
        budget=budget,
    )


def _explore_pass(inputs: ExploreInputs, _workdir: Path) -> PassResult:
    clock = _GapClock()
    reports = []
    seconds = 0.0
    for strategy in EXPLORE_STRATEGIES:
        started = time.perf_counter()
        reports.append(explorer.Explorer(
            inputs.scenario, strategy=strategy, budget=inputs.budget,
            parallel=1, shrink=False,
        ).run(progress=clock))
        seconds += time.perf_counter() - started
    schedules = sum(report.schedules_run for report in reports)
    unique = sum(report.unique_schedules for report in reports)
    counterexamples = sum(len(report.counterexamples) for report in reports)
    failures = sum(len(report.failures) for report in reports)
    return PassResult(
        ops=schedules,
        ops_seconds=seconds,
        checks=[("explore.budget_run",
                 schedules == inputs.budget * len(EXPLORE_STRATEGIES))],
        units=schedules,
        unit_failures=counterexamples + failures,
        stats={
            "schedules": schedules,
            "unique": {report.strategy: report.unique_schedules
                       for report in reports},
        },
        layer={
            "explore.schedules": schedules,
            "explore.unique_share": unique / schedules if schedules else 0.0,
            "explore.counterexamples": counterexamples,
            **_gap_metrics(clock.gaps),
        },
    )


def mutant_counterexamples(seed: int) -> int:
    """Counterexamples a short walk finds on the retransmission-free mutant
    (the explorer must be able to fail, or 0 counterexamples means nothing)."""
    mutant = build_explore(seed).scenario.with_(algorithm="algorithm1_noretx")
    report = explorer.Explorer(mutant, strategy="random_walk",
                               budget=MUTANT_BUDGET, parallel=1,
                               shrink=False).run()
    return len(report.counterexamples)


def _explore_warm_up(seed: int, workdir: Path) -> tuple[Checks, dict]:
    checks = _checks_of(_explore_pass(build_explore(seed, budget=10), workdir))
    caught = mutant_counterexamples(seed)
    return (checks + [("explore.mutant_caught", caught >= 1)],
            {"explore.mutant_caught": caught})


# --------------------------------------------------------------------------- #
def _checks_of(result: PassResult) -> Checks:
    """A warm-up pass's checks, plus one for its units of work."""
    return result.checks + [("warm_up.units_ok", result.unit_failures == 0)]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="quiescence_n24",
            build=build_quiescence,
            run_pass=lambda scenario, _workdir: _engine_pass(scenario,
                                                             "quiescent"),
            warm_up=_engine_warm_up(build_quiescence, "quiescent",
                                    n=6, burst=2),
        ),
        Workload(
            name="flood_n14",
            build=build_flood,
            run_pass=lambda scenario, _workdir: _engine_pass(scenario,
                                                             "horizon"),
            warm_up=_engine_warm_up(build_flood, "horizon", n=5, horizon=4.0),
        ),
        Workload(
            name="campaign_grid",
            build=build_grid,
            run_pass=_grid_pass,
            warm_up=_grid_warm_up,
        ),
        Workload(
            name="campaign_leased",
            build=build_leased,
            run_pass=_leased_pass,
            warm_up=_leased_warm_up,
        ),
        Workload(
            name="explore_walk",
            build=build_explore,
            run_pass=_explore_pass,
            warm_up=_explore_warm_up,
        ),
    )
}
