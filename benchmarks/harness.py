"""Benchmark harness: named scenarios, normalized results, baseline compare.

A plain-Python subsystem that CI can run without plugins:

* a registry of named benchmark scenarios with no twin among the
  end-to-end workloads of ``benchmarks/e2e``: the full-size n=40 quiescence
  headline, the observability tax on it, raw event-queue churn, and the
  durable layer (result store, store merge);
* a runner that measures wall time, dispatched events/sec, protocol
  ops/sec (sends) and peak RSS for each scenario, plus — from one more
  pass with ``repro.obs`` on — the cyclic collector's share (``meta.gc``);
* a *calibration* loop whose throughput is measured on the same machine in
  the same session, so scores can be normalized (``events_per_sec /
  calibration_mops``) and compared across machines with less noise;
* baseline load/compare helpers used by ``scripts/bench.py`` and CI.

Results are serialised as ``BENCH_<name>.json`` (one file per scenario,
schema below) and the committed baseline lives in
``benchmarks/baseline.json``.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro import obs
from repro.experiments.config import Scenario
from repro.experiments.runner import build_engine
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.simulation.events import EventKind
from repro.simulation.metrics import MetricsCollector, MetricsLevel
from repro.simulation.scheduler import EventQueue

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default committed baseline location.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: Default regression tolerance (fraction of the baseline score).
DEFAULT_TOLERANCE = 0.25


def peak_rss_kb() -> int:
    """Peak resident set size of this process so far, in KiB.

    ``ru_maxrss`` is a process-lifetime high-water mark: when several
    scenarios run in one process, later scenarios inherit earlier peaks.
    Results therefore also carry a per-scenario ``rss_delta_kb`` (current
    RSS growth across the timed region), which is the field to watch for
    scenario-attributable memory changes.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    return rss // 1024 if sys.platform == "darwin" else rss


def current_rss_kb() -> int:
    """Current resident set size in KiB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def calibrate(rounds: int = 3) -> float:
    """Measure this machine's throughput on a fixed pure-Python workload.

    Returns the best observed rate in mega-operations per second.  The
    workload (dict churn + integer arithmetic) is deliberately similar in
    flavour to the simulator's hot path, so ``events_per_sec / mops`` is a
    machine-independent-ish score suitable for cross-run comparison.
    """
    best = 0.0
    n = 200_000
    for _ in range(rounds):
        counts: dict[int, int] = {}
        start = time.perf_counter()
        acc = 0
        for i in range(n):
            key = i & 63
            counts[key] = counts.get(key, 0) + 1
            acc += key
        elapsed = time.perf_counter() - start
        best = max(best, n / elapsed / 1e6)
    return best


@dataclass
class BenchResult:
    """One scenario's normalized measurement."""

    name: str
    wall_time_s: float
    events: int
    events_per_sec: float
    ops: int
    ops_per_sec: float
    peak_rss_kb: int
    calibration_mops: float
    quick: bool
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def normalized_score(self) -> float:
        """Machine-normalized throughput: events/sec per calibration Mop/s."""
        if self.calibration_mops <= 0:
            return self.events_per_sec
        return self.events_per_sec / self.calibration_mops

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (the ``BENCH_*.json`` schema)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "wall_time_s": self.wall_time_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "ops": self.ops,
            "ops_per_sec": self.ops_per_sec,
            "peak_rss_kb": self.peak_rss_kb,
            "calibration_mops": self.calibration_mops,
            "normalized_score": self.normalized_score,
            "quick": self.quick,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "meta": dict(self.meta),
        }

    def write(self, directory: Path) -> Path:
        """Write ``BENCH_<name>.json`` into *directory* and return the path."""
        path = Path(directory) / f"BENCH_{self.name}.json"
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")
        return path


@dataclass(frozen=True)
class BenchSpec:
    """A registered benchmark scenario.

    ``run`` receives ``quick`` and returns ``(wall_time_s, events, ops,
    meta)`` — the timed region must cover only the measured work, never
    setup.
    """

    name: str
    description: str
    run: Callable[[bool], tuple[float, int, int, dict[str, Any]]]


BENCH_SCENARIOS: dict[str, BenchSpec] = {}


def register_bench(name: str, description: str):
    """Decorator registering a benchmark scenario under *name*."""

    def decorator(fn: Callable[[bool], tuple[float, int, int, dict[str, Any]]]):
        BENCH_SCENARIOS[name] = BenchSpec(name, description, fn)
        return fn

    return decorator


def _run_engine_scenario(scenario: Scenario) -> tuple[float, int, int, dict[str, Any]]:
    """Build the engine untimed, then time ``engine.run()`` alone.

    The collector is in its aggregate-counters-only mode — the intended
    configuration for large benchmark sweeps, where per-event
    timeline/latency lists would dominate time and memory without being
    read.
    """
    engine = build_engine(scenario)
    engine.metrics = MetricsCollector(level=MetricsLevel.COUNTERS)
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    summary = result.metrics_summary()
    meta = {
        "n_processes": scenario.n_processes,
        "algorithm": scenario.algorithm,
        "stop_reason": result.stop_reason,
        "final_time": result.final_time,
        "total_sends": summary.total_sends,
        "deliveries": summary.deliveries,
    }
    return elapsed, result.event_stats.total, summary.total_sends, meta


def _quiescence_scenario(quick: bool, name: str, engine: str) -> Scenario:
    """Algorithm 2 burst to quiescence at large n (the paper's E4 regime,
    scaled up): the load of ``quiescence_vectorized`` and ``obs_overhead``."""
    n = 16 if quick else 40
    return Scenario(
        name=name,
        algorithm="algorithm2",
        n_processes=n,
        seed=1234,
        loss=LossSpec.bernoulli(0.05),
        delay=DelaySpec.uniform(0.05, 0.5),
        workload="burst",
        metadata={"burst_size": n},
        stop_when_quiescent=True,
        drain_grace_period=2.0,
        max_time=400.0,
        trace_enabled=False,
        engine=engine,
    )


@register_bench(
    "quiescence_vectorized",
    "Algorithm 2 quiescence run at large n under the vectorized engine backend",
)
def _bench_quiescence_vectorized(quick: bool):
    scenario = _quiescence_scenario(quick, "bench-quiescence-vectorized",
                                    "vectorized")
    return _run_engine_scenario(scenario)


@register_bench(
    "obs_overhead",
    "Quiescence load with the obs registry disabled vs fully enabled",
)
def _bench_obs_overhead(quick: bool):
    """Quantify the observability tax on the hottest engine path.

    Runs the quiescence load twice on the reference engine (the per-event
    loop is where the obs call sites are) — registry disabled (the
    default, and the configuration the 2% budget applies to) and fully
    enabled with a live timeline sink — and reports both throughputs
    plus the relative overhead in ``meta``.  The timed value is the
    *disabled* run, so baseline comparisons keep gating the
    nobody-asked-for-obs path.
    """
    import io

    from repro import obs

    scenario = _quiescence_scenario(quick, "bench-obs-overhead", "reference")

    obs.reset()
    disabled = _run_engine_scenario(scenario)
    obs.reset()
    obs.enable()
    previous = obs.set_timeline(obs.Timeline(io.StringIO()))
    try:
        enabled = _run_engine_scenario(scenario)
    finally:
        obs.set_timeline(previous)
        obs.reset()

    wall_disabled, events, sends, meta = disabled
    wall_enabled = enabled[0]
    meta = dict(meta)
    meta.update({
        "disabled_wall_time_s": wall_disabled,
        "enabled_wall_time_s": wall_enabled,
        "disabled_events_per_s": events / wall_disabled,
        "enabled_events_per_s": enabled[1] / wall_enabled,
        "overhead_pct":
            (wall_enabled - wall_disabled) / wall_disabled * 100.0,
    })
    return wall_disabled, events, sends, meta


@register_bench(
    "event_queue_churn",
    "Raw EventQueue push/pop churn (no protocol work)",
)
def _bench_event_queue_churn(quick: bool):
    # Quick mode still runs a sizeable batch: shorter loops are dominated
    # by timer/scheduler noise, which a 25% CI regression gate cannot absorb.
    n_ops = 200_000 if quick else 500_000
    queue = EventQueue()
    kinds = (EventKind.RECEIVE, EventKind.TICK, EventKind.RECEIVE)
    # Pre-fill so the heap has realistic depth, then run a pop/push cycle
    # that mirrors the engine's steady state (each popped event schedules
    # one or two successors).
    for i in range(256):
        queue.schedule(float(i % 17), kinds[i % 3], target=i % 32)
    start = time.perf_counter()
    pushed = 256
    popped = 0
    while popped < n_ops:
        event = queue.pop()
        popped += 1
        t = event[0]
        queue.schedule(t + 1.0, kinds[popped % 3], target=popped % 32)
        pushed += 1
        if popped % 3 == 0:
            queue.schedule(t + 2.5, EventKind.TICK, target=popped % 32)
            pushed += 1
    elapsed = time.perf_counter() - start
    total = pushed + popped
    return elapsed, total, total, {"pushed": pushed, "popped": popped}


@register_bench(
    "campaign_store",
    "Result-store throughput: content hashing, puts, cache hits and queries",
)
def _bench_campaign_store(quick: bool):
    import dataclasses
    import shutil
    import tempfile

    from repro.campaigns import ResultStore, scenario_cell_key
    from repro.experiments.runner import run_scenario

    cells = 150 if quick else 400
    # One real (untimed) simulation provides the payload; seed variants give
    # each put a distinct content address, so the timed region measures pure
    # store work (hash + compress + SQLite), not the simulator.
    template = run_scenario(Scenario(
        name="bench-campaign-store",
        algorithm="algorithm2",
        n_processes=4,
        seed=0,
        stop_when_quiescent=True,
        drain_grace_period=2.0,
        max_time=120.0,
    ))
    results = [
        dataclasses.replace(template,
                            scenario=template.scenario.with_seed(seed))
        for seed in range(cells)
    ]
    root = Path(tempfile.mkdtemp(prefix="bench-campaign-store-"))
    try:
        with ResultStore(root) as store:
            start = time.perf_counter()
            keys = [scenario_cell_key(r.scenario) for r in results]
            for key, result in zip(keys, results):
                store.put(result, cell_key=key)
            # The resume hot path: every cell answered from the index.
            # (Plain check, not assert: python -O must not change the work
            # the op count claims was measured.)
            misses = sum(1 for key in keys if not store.contains(key))
            if misses:
                raise RuntimeError(f"{misses} stored cell(s) missed")
            hit_rows = sum(1 for key in keys if store.get(key) is not None)
            queried = len(store.query(algorithm="algorithm2"))
            elapsed = time.perf_counter() - start
            ops = 4 * cells  # hash + put + contains + get per cell
            meta = {
                "cells": cells,
                "hits": store.hits,
                "queried": queried,
                "hit_rows": hit_rows,
            }
        return elapsed, ops, ops, meta
    finally:
        shutil.rmtree(root, ignore_errors=True)


@register_bench(
    "campaign_merge",
    "Store-merge throughput: union of sharded worker stores with overlap",
)
def _bench_campaign_merge(quick: bool):
    import dataclasses
    import shutil
    import tempfile

    from repro.campaigns import ResultStore
    from repro.campaigns.distributed import merge_stores
    from repro.experiments.runner import run_scenario

    # Quick mode still merges a sizeable shard set: a source is one SQL
    # transaction at some 25 us per cell, so a few hundred cells finish in
    # milliseconds, where SQLite commit jitter alone would blow the CI
    # regression gate.
    cells = 2400 if quick else 6000
    shards = 4
    # One real (untimed) simulation provides the payload; seed variants give
    # distinct content addresses.  Each shard holds its slice plus a few
    # cells of its neighbour's — the overlap a reclaimed lease produces —
    # so the timed region covers both the copy path and the
    # already-present semantic-compare path.
    template = run_scenario(Scenario(
        name="bench-campaign-merge",
        algorithm="algorithm2",
        n_processes=4,
        seed=0,
        stop_when_quiescent=True,
        drain_grace_period=2.0,
        max_time=120.0,
    ))
    results = [
        dataclasses.replace(template,
                            scenario=template.scenario.with_seed(seed))
        for seed in range(cells)
    ]
    overlap = max(1, cells // shards // 4)
    root = Path(tempfile.mkdtemp(prefix="bench-campaign-merge-"))
    try:
        shard_roots = []
        for shard in range(shards):
            shard_root = root / f"worker-{shard}"
            shard_roots.append(shard_root)
            lo = shard * cells // shards
            hi = (shard + 1) * cells // shards
            with ResultStore(shard_root) as store:
                store.put_many(results[lo:min(hi + overlap, cells)])
        with ResultStore(root / "merged") as dest:
            sources = [ResultStore(r, create=False) for r in shard_roots]
            try:
                start = time.perf_counter()
                stats = merge_stores(dest, sources)
                elapsed = time.perf_counter() - start
            finally:
                for source in sources:
                    source.close()
        if stats.copied != cells:
            raise RuntimeError(
                f"merged {stats.copied} cell(s), expected {cells}")
        ops = stats.copied + stats.skipped
        meta = {
            "cells": cells,
            "shards": shards,
            "copied": stats.copied,
            "skipped": stats.skipped,
        }
        return elapsed, ops, ops, meta
    finally:
        shutil.rmtree(root, ignore_errors=True)


# --------------------------------------------------------------------------- #
# running and comparing
# --------------------------------------------------------------------------- #
def run_benchmark(
    name: str,
    *,
    quick: bool = False,
    repeat: int = 1,
    calibration_mops: Optional[float] = None,
) -> BenchResult:
    """Run one registered scenario and return its normalized result.

    With ``repeat > 1`` the scenario runs several times and the fastest
    wall time wins (standard best-of-N to suppress scheduler noise).
    """
    spec = BENCH_SCENARIOS[name]
    if calibration_mops is None:
        calibration_mops = calibrate()
    best: Optional[tuple[float, int, int, dict[str, Any]]] = None
    rss_before = current_rss_kb()
    for _ in range(max(1, repeat)):
        measured = spec.run(quick)
        if best is None or measured[0] < best[0]:
            best = measured
    assert best is not None
    elapsed, events, ops, meta = best
    meta = dict(meta)
    meta["rss_delta_kb"] = max(0, current_rss_kb() - rss_before)
    meta["gc"] = observed_gc(spec, quick)
    elapsed = max(elapsed, 1e-9)
    return BenchResult(
        name=name,
        wall_time_s=elapsed,
        events=events,
        events_per_sec=events / elapsed,
        ops=ops,
        ops_per_sec=ops / elapsed,
        peak_rss_kb=peak_rss_kb(),
        calibration_mops=calibration_mops,
        quick=quick,
        meta=meta,
    )


def observed_gc(spec: BenchSpec, quick: bool) -> dict[str, dict[str, float]]:
    """The cyclic collector's passes and seconds, by generation, over one
    more untimed pass of *spec* with :mod:`repro.obs` enabled.

    The numbers are the obs layer's own (its ``gc.callbacks`` instrument
    feeding ``repro_gc_collections_total`` / ``repro_gc_seconds_total``);
    the timed passes keep running with obs off.  A scenario that resets obs
    itself (``obs_overhead``) reads zeros.
    """
    obs.reset()
    obs.enable()
    try:
        counters = {key: obs.REGISTRY.get(f"repro_gc_{key}_total")
                    for key in ("collections", "seconds")}
        spec.run(quick)
        return {key: {labels[0]: value for labels, value in counter.samples()}
                for key, counter in counters.items()}
    finally:
        obs.reset()


def load_baseline(path: Path) -> dict[str, dict[str, Any]]:
    """Load a baseline file: mapping scenario name -> recorded result dict."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "scenarios" in data:
        return dict(data["scenarios"])
    raise ValueError(f"unrecognised baseline layout in {path}")


def save_baseline(path: Path, results: list[BenchResult]) -> None:
    """Record *results* in the committed baseline; the entries of scenarios
    that were not run (``--scenarios a --update-baseline``) are kept."""
    path = Path(path)
    scenarios = load_baseline(path) if path.exists() else {}
    scenarios.update({r.name: r.as_dict() for r in results})
    payload = {"schema_version": SCHEMA_VERSION, "scenarios": scenarios}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing one result against the committed baseline."""

    name: str
    baseline_score: float
    current_score: float
    ratio: float
    regressed: bool

    def describe(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.name:24s} baseline={self.baseline_score:10.1f} "
            f"current={self.current_score:10.1f} ratio={self.ratio:5.2f}x "
            f"[{verdict}]"
        )


def compare_to_baseline(
    results: list[BenchResult],
    baseline: dict[str, dict[str, Any]],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Comparison]:
    """Compare results against a baseline; a scenario regresses when its
    normalized score falls below ``baseline * (1 - tolerance)``.

    Scenarios absent from the baseline are skipped (new benchmarks must not
    fail CI until a baseline for them is committed), as are entries whose
    recorded mode differs from the run's (a quick result against a
    full-size baseline compares different problem sizes — each mode only
    gates against a baseline captured in the same mode).  Wall-time-only
    scenarios (``events == 0``) compare inverse wall time instead.
    """
    comparisons: list[Comparison] = []
    for result in results:
        recorded = baseline.get(result.name)
        if recorded is None:
            continue
        if bool(recorded.get("quick", False)) != bool(result.quick):
            continue
        base_score = float(recorded.get("normalized_score", 0.0))
        cur_score = result.normalized_score
        if result.events == 0 or base_score == 0.0:
            base_wall = float(recorded.get("wall_time_s", 0.0))
            if base_wall <= 0:
                continue
            # Normalize inverse wall time by each side's calibration so the
            # fallback stays machine-comparable like the primary score.
            base_cal = float(recorded.get("calibration_mops", 0.0)) or 1.0
            cur_cal = result.calibration_mops or 1.0
            base_score = 1.0 / (base_wall * base_cal)
            cur_score = 1.0 / (result.wall_time_s * cur_cal)
        ratio = cur_score / base_score if base_score else float("inf")
        comparisons.append(
            Comparison(
                name=result.name,
                baseline_score=base_score,
                current_score=cur_score,
                ratio=ratio,
                regressed=cur_score < base_score * (1.0 - tolerance),
            )
        )
    return comparisons
