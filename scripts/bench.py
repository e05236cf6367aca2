#!/usr/bin/env python
"""Run the repo's benchmarks and record their samples as ``BENCH_*.json``.

Usage (from the repository root)::

    python scripts/bench.py [--quick] [--scenarios LOAD,...]
    python scripts/bench.py --list
    python scripts/bench.py --e2e [--quick] [--scenarios WORKLOAD,...]

Without ``--e2e`` it runs the loads that no end-to-end workload of
``benchmarks/e2e`` covers (``--list``; all of them unless ``--scenarios``
names some).  Each load has one fixed size and runs in its own
interpreter, so its peak memory is its own.  It makes ``FULL_SAMPLES``
timed passes (``QUICK_SAMPLES`` with ``--quick``), checks its output on
every pass, makes one more untimed pass with :mod:`repro.obs` on for
``meta.gc``, and writes ``BENCH_<load>.json``.

``--e2e`` runs the end-to-end benchmark instead, unchanged
(``benchmarks/e2e/run.py``: every workload, or those ``--scenarios``
names, each in a fresh interpreter, at its golden seed, 3 s a workload
with ``--quick``), and writes each workload's end-to-end metrics to
``BENCH_e2e_<workload>.json``.

Both write one document (:func:`document`): ``correct``, ``attempted``,
``failed``, and each metric as ``{value, unit, samples}`` with the value
the median of its samples.  The numbers are raw: a speed claim compares
parent and change measured back to back on one machine, never against a
stored figure.  The script exits non-zero when any output was incorrect.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402  (needs the path setup above)
from repro.analysis.properties import check_urb_properties  # noqa: E402
from repro.campaigns import ResultStore, scenario_cell_key  # noqa: E402
from repro.campaigns.distributed import merge_stores  # noqa: E402
from repro.experiments.config import Scenario  # noqa: E402
from repro.experiments.parity import (  # noqa: E402
    engine_fingerprint,
    fingerprint,
    run_fingerprint,
)
from repro.experiments.runner import build_engine, run_scenario  # noqa: E402
from repro.network.delay import DelaySpec  # noqa: E402
from repro.network.loss import LossSpec  # noqa: E402
from repro.simulation.events import EventKind  # noqa: E402
from repro.simulation.metrics import MetricsCollector, MetricsLevel  # noqa: E402
from repro.simulation.scheduler import EventQueue  # noqa: E402
from repro.simulation.tracing import (  # noqa: E402
    TraceCategory,
    TraceLevel,
    TraceRecorder,
)

E2E_RUN = REPO_ROOT / "benchmarks" / "e2e" / "run.py"
#: Seconds of passes per workload with ``--e2e --quick`` (CI's setting).
E2E_QUICK_SECONDS = 3
#: Timed passes per load: a committed recording, and ``--quick`` (CI's).
FULL_SAMPLES = 5
QUICK_SAMPLES = 1
UNITS = {"wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
         "overhead_pct": "%", "reference_s": "s", "vectorized_s": "s"}

#: One pass of a load: ``({metric: value}, correct, meta)``.  The timed
#: region covers the measured work only, never set-up.
Pass = tuple[dict[str, float], bool, dict[str, Any]]


def _rates(seconds: float, ops: int, **extra: float) -> dict[str, float]:
    return {"wall_s": seconds, "ops_per_s": ops / seconds, **extra}


def _quiescence_scenario(n: int, engine: str) -> Scenario:
    """Algorithm 2 burst to quiescence (the paper's E4 regime, scaled up)."""
    return Scenario(
        name=f"bench-quiescence-{engine}",
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


def _run_engine(scenario: Scenario):
    """Build the engine untimed, then time ``engine.run()`` alone, with the
    collector in its counters-only mode (per-event lists are never read
    here).  Returns ``(result, seconds)``."""
    engine = build_engine(scenario)
    engine.metrics = MetricsCollector(level=MetricsLevel.COUNTERS)
    start = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - start


def quiescence_vectorized() -> Pass:
    """Algorithm 2 quiescence at n=40 on the vectorized engine's batched path."""
    scenario = _quiescence_scenario(40, "vectorized")
    result, seconds = _run_engine(scenario)
    summary = result.metrics_summary()
    # A fallback would time the per-event loop under this load's name.
    execution = result.execution
    correct = (execution.dispatch_mode == execution.consume_mode == "batched"
               and execution.generic_rows == 0
               and result.stop_reason == "quiescent")
    events = result.event_stats.total
    return _rates(seconds, events), correct, {
        "n_processes": scenario.n_processes, "events": events,
        "sends": summary.total_sends, "deliveries": summary.deliveries,
        "final_time": result.final_time}


def obs_overhead() -> Pass:
    """The quiescence load at n=16 on the reference engine, obs off vs on."""
    # The per-event loop is where the obs call sites are.  The timed value
    # is the obs-off run (the default, which the 2% budget is about); the
    # obs-on run has a live timeline sink.  Both must do the same work.
    scenario = _quiescence_scenario(16, "reference")
    obs.reset()
    off, off_seconds = _run_engine(scenario)
    obs.enable()
    previous = obs.set_timeline(obs.Timeline(io.StringIO()))
    try:
        on, on_seconds = _run_engine(scenario)
    finally:
        obs.set_timeline(previous)
        obs.reset()
    events = off.event_stats.total
    sends = off.metrics_summary().total_sends
    correct = (on.event_stats.total == events
               and on.metrics_summary().total_sends == sends
               and off.stop_reason == "quiescent")
    overhead = (on_seconds - off_seconds) / off_seconds * 100.0
    return _rates(off_seconds, events, overhead_pct=overhead), correct, {
        "n_processes": scenario.n_processes, "events": events,
        "sends": sends}


def _flood_scenario(n: int) -> Scenario:
    """The ``flood_n14`` workload's scenario at its golden seed (as
    ``benchmarks/e2e/workloads.py`` builds it): Algorithm 1, every process
    broadcasts once, Bernoulli loss 0.2, two crashes, a 6 s horizon."""
    return Scenario(
        name="bench-flood",
        algorithm="algorithm1",
        n_processes=n,
        seed=1234,
        loss=LossSpec.bernoulli(0.2),
        delay=DelaySpec.uniform(0.05, 0.5),
        workload="all_to_all",
        crashes={0: 6.0 * 0.3, 1: 6.0 * 0.7},
        max_time=6.0,
    )


def _reference_pass(scenario: Scenario, expect_stop: str) -> Pass:
    """*scenario* on the per-event loop alone: only the reference run is
    timed, and its fingerprint, the channels' settled counts included, must
    equal an untimed vectorized run's."""
    # Built as the e2e engine pass builds a run (DELIVERIES trace, COUNTERS
    # metrics).
    prints, seconds, events = {}, 0.0, 0
    for engine in ("vectorized", "reference"):
        built = build_engine(scenario.with_(engine=engine))
        built.trace = TraceRecorder(enabled=True, level=TraceLevel.DELIVERIES)
        built.metrics = MetricsCollector(level=MetricsLevel.COUNTERS)
        start = time.perf_counter()
        result = built.run()
        seconds = time.perf_counter() - start
        events = result.event_stats.total
        prints[engine] = {**fingerprint(result), **engine_fingerprint(built)}
    correct = (prints["reference"] == prints["vectorized"]
               and prints["reference"]["stop_reason"] == expect_stop)
    return _rates(seconds, events), correct, {
        "n_processes": scenario.n_processes, "events": events,
        "sends": prints["reference"]["metrics"]["total_sends"]}


def flood_reference() -> Pass:
    """The flood_n14 scenario on the per-event loop alone (reference engine)."""
    return _reference_pass(_flood_scenario(14), "horizon")


def flood_full_trace() -> Pass:
    """The flood_n14 scenario on the reference engine with FULL trace and metrics."""
    # What a campaign cell records, on the flood: one trace row per
    # broadcast and one send mark.  The timed region is the run and the
    # reads that check it, which answer from those rows as they are.
    built = build_engine(_flood_scenario(14).with_(engine="reference"))
    built.trace = TraceRecorder(enabled=True, level=TraceLevel.FULL)
    built.metrics = MetricsCollector(level=MetricsLevel.FULL)
    start = time.perf_counter()
    result = built.run()
    trace, metrics = result.trace, result.metrics
    counts = {category.value: trace.count(category) for category in (
        TraceCategory.SEND, TraceCategory.DROP, TraceCategory.CHANNEL_DELIVER)}
    correct = (check_urb_properties(result).all_hold
               and result.stop_reason == "horizon"
               and counts == {"send": metrics.total_sends,
                              "drop": metrics.total_drops,
                              "channel_deliver":
                                  metrics.total_channel_deliveries})
    seconds = time.perf_counter() - start
    events = result.event_stats.total
    return _rates(seconds, events), correct, {
        "n_processes": built.config.n_processes, "events": events,
        "trace_records": len(trace), **counts}


def _quiescence_e2e_scenario(n: int) -> Scenario:
    """The ``quiescence_n24`` workload's scenario at its golden seed (as
    ``benchmarks/e2e/workloads.py`` builds it): Algorithm 2, a burst of four
    broadcasts, Bernoulli loss 0.05, to quiescence with a 2 s drain."""
    return _quiescence_scenario(n, "reference").with_(
        name="bench-quiescence-reference", metadata={"burst_size": 4})


def quiescence_reference() -> Pass:
    """The quiescence_n24 scenario on the per-event loop alone (reference engine)."""
    return _reference_pass(_quiescence_e2e_scenario(24), "quiescent")


def _fd_all_processes_scenario(n: int) -> Scenario:
    """Algorithm 2 under the detection-based AΘ / AP\\*: every label, a
    staggered learn delay, and two crashes the detectors must notice."""
    return _quiescence_scenario(n, "reference").with_(
        name="bench-fd-all-processes",
        metadata={"burst_size": 4},
        fd_policy="all_processes",
        fd_learn_delay=3.0,
        crashes={n - 1: 2.0, n - 2: 5.0},
    )


def fd_all_processes() -> Pass:
    """Algorithm 2 at n=16 under ALL_PROCESSES detectors, on both engines."""
    # Each engine's timed region is its whole ``run_fingerprint``: the
    # detectors' tables are made when the engine is built, so the build is
    # part of what this load measures.
    scenario = _fd_all_processes_scenario(16)
    runs, seconds = {}, {}
    for engine in ("reference", "vectorized"):
        start = time.perf_counter()
        runs[engine] = run_fingerprint(scenario, engine)
        seconds[engine] = time.perf_counter() - start
    reference, vectorized = runs["reference"], runs["vectorized"]
    correct = (reference.fingerprint == vectorized.fingerprint
               and all(run.fingerprint["stop_reason"] == "quiescent"
                       for run in runs.values()))
    events = sum(sum(run.fingerprint["event_stats"].values())
                 for run in runs.values())
    return _rates(sum(seconds.values()), events,
                  reference_s=seconds["reference"],
                  vectorized_s=seconds["vectorized"]), correct, {
        "n_processes": scenario.n_processes, "events": events,
        "final_time": reference.fingerprint["final_time"],
        "dispatch_mode": vectorized.execution.dispatch_mode}


def event_queue_churn() -> Pass:
    """Raw EventQueue push/pop churn, 500k pops (no protocol work)."""
    n_ops = 500_000
    queue = EventQueue()
    kinds = (EventKind.RECEIVE, EventKind.TICK, EventKind.RECEIVE)
    # Pre-fill so the queue has realistic depth, then run a pop/push cycle
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
    seconds = time.perf_counter() - start
    correct = len(queue) == sum(queue.pending) == pushed - popped
    return _rates(seconds, pushed + popped), correct, {
        "popped": popped, "pushed": pushed}


def _stored_results(name: str, cells: int) -> list:
    """*cells* results with distinct content addresses: one real (untimed)
    simulation, then seed variants of it, so the timed region measures
    store work (hash + compress + SQLite), not the simulator."""
    template = run_scenario(Scenario(
        name=name,
        algorithm="algorithm2",
        n_processes=4,
        seed=0,
        stop_when_quiescent=True,
        drain_grace_period=2.0,
        max_time=120.0,
    ))
    return [dataclasses.replace(template,
                                scenario=template.scenario.with_seed(seed))
            for seed in range(cells)]


def campaign_store() -> Pass:
    """Result-store hashing, puts, cache hits and a query over 400 cells."""
    cells = 400
    results = _stored_results("bench-campaign-store", cells)
    root = Path(tempfile.mkdtemp(prefix="bench-campaign-store-"))
    try:
        with ResultStore(root) as store:
            start = time.perf_counter()
            keys = [scenario_cell_key(r.scenario) for r in results]
            for key, result in zip(keys, results):
                store.put_many([ResultStore.pack(result, key)])
            # The resume hot path: every cell answered from the index.
            misses = sum(1 for key in keys if not store.contains(key))
            hit_rows = sum(1 for key in keys if store.get(key) is not None)
            queried = len(store.query(algorithm="algorithm2"))
            seconds = time.perf_counter() - start
        correct = misses == 0 and hit_rows == queried == cells
        # hash + put + contains + get per cell
        return _rates(seconds, 4 * cells), correct, {
            "cells": cells, "misses": misses, "hit_rows": hit_rows,
            "queried": queried}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def campaign_merge() -> Pass:
    """merge_stores of 6,000 cells from 4 worker shards that overlap."""
    cells, shards = 6000, 4
    results = _stored_results("bench-campaign-merge", cells)
    # Each shard holds its slice plus a few cells of its neighbour's (the
    # overlap a reclaimed lease produces), so the timed region covers both
    # the copy path and the already-present semantic-compare path.
    overlap = cells // shards // 4
    root = Path(tempfile.mkdtemp(prefix="bench-campaign-merge-"))
    try:
        shard_roots = [root / f"worker-{shard}" for shard in range(shards)]
        for shard, shard_root in enumerate(shard_roots):
            lo = shard * cells // shards
            hi = (shard + 1) * cells // shards
            with ResultStore(shard_root) as store:
                store.put_many([ResultStore.pack(result)
                                for result in results[lo:min(hi + overlap, cells)]])
        with ResultStore(root / "merged") as dest:
            sources = [ResultStore(r, create=False) for r in shard_roots]
            try:
                start = time.perf_counter()
                stats = merge_stores(dest, sources)
                seconds = time.perf_counter() - start
            finally:
                for source in sources:
                    source.close()
        correct = (stats.copied == cells
                   and stats.skipped == (shards - 1) * overlap)
        return _rates(seconds, stats.copied + stats.skipped), correct, {
            "cells": cells, "shards": shards, "copied": stats.copied,
            "skipped": stats.skipped}
    finally:
        shutil.rmtree(root, ignore_errors=True)


LOADS: dict[str, Callable[[], Pass]] = {
    "quiescence_vectorized": quiescence_vectorized,
    "fd_all_processes": fd_all_processes,
    "flood_reference": flood_reference,
    "flood_full_trace": flood_full_trace,
    "quiescence_reference": quiescence_reference,
    "obs_overhead": obs_overhead,
    "event_queue_churn": event_queue_churn,
    "campaign_store": campaign_store,
    "campaign_merge": campaign_merge,
}


# --------------------------------------------------------------------------- #
# measuring and recording
# --------------------------------------------------------------------------- #
def document(name: str, *, correct: bool, attempted: int, failed: int,
             metrics: dict[str, dict[str, Any]],
             **context: Any) -> dict[str, Any]:
    """The ``BENCH_<name>.json`` document of a load or an e2e workload."""
    return {"name": name, "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "python": platform.python_version(),
            "platform": platform.platform(), **context}


def write_document(doc: dict[str, Any], output_dir: Path) -> None:
    """Write *doc* as ``BENCH_<name>.json`` and print its metrics."""
    path = output_dir / f"BENCH_{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"  {doc['name']}: " + ", ".join(
        f"{key}={metric['value']:.4g} {metric['unit']}"
        for key, metric in doc["metrics"].items())
        + ("" if doc["correct"] else "  INCORRECT") + f" -> {path.name}")


def measure(name: str, samples: int) -> dict[str, Any]:
    """Make *samples* timed passes of load *name* in this process, then the
    ``meta.gc`` pass; return the load's document."""
    load = LOADS[name]
    measured: dict[str, list[float]] = {}
    failed = 0
    meta: dict[str, Any] = {}
    for _ in range(samples):
        # Every pass starts from a collected heap, as the e2e passes do.
        gc.collect()
        values, correct, meta = load()
        failed += not correct
        for key, value in values.items():
            measured.setdefault(key, []).append(value)
    # ru_maxrss is this interpreter's high-water mark: the load's own peak.
    measured["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    meta["gc"] = observed_gc(load)
    return document(
        name, correct=failed == 0, attempted=samples, failed=failed,
        metrics={key: {"value": statistics.median(values), "unit": UNITS[key],
                       "samples": values}
                 for key, values in measured.items()},
        meta=meta)


def observed_gc(load: Callable[[], Pass]) -> dict[str, dict[str, float]]:
    """The cyclic collector's passes and seconds, by generation, over one
    more untimed pass of *load* with :mod:`repro.obs` enabled.

    The numbers are the obs layer's own (its ``gc.callbacks`` instrument
    feeding ``repro_gc_collections_total`` / ``repro_gc_seconds_total``);
    the timed passes keep running with obs off.  A load that resets obs
    itself (``obs_overhead``) reads zeros.
    """
    obs.reset()
    obs.enable()
    try:
        counters = {key: obs.REGISTRY.get(f"repro_gc_{key}_total")
                    for key in ("collections", "seconds")}
        load()
        return {key: {labels[0]: value for labels, value in counter.samples()}
                for key, counter in counters.items()}
    finally:
        obs.reset()


#: What a load's child interpreter runs: ``measure``, its document on stdout.
_CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench; "
          "print(json.dumps(bench.measure(sys.argv[2], int(sys.argv[3]))))")


def run_load(name: str, samples: int) -> dict[str, Any]:
    """:func:`measure` *name* in a fresh interpreter and return its document."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent),
         name, str(samples)],
        stdout=subprocess.PIPE, text=True, check=False)
    if child.returncode != 0:
        raise SystemExit(f"{name}: exited with code {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def e2e_documents(collected: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """``BENCH_e2e_<workload>.json`` contents from one ``run.py`` result
    file: each workload's metrics with their units and samples."""
    return {
        workload: document(
            f"e2e_{workload}", correct=entry["failed"] == 0,
            attempted=entry["attempted"], failed=entry["failed"],
            metrics=entry["metrics"], workload=workload,
            seed=collected["seed"], seconds=collected["seconds"])
        for workload, entry in collected["workloads"].items()
    }


def run_e2e(workloads: list[str], quick: bool, output_dir: Path) -> int:
    """Run ``benchmarks/e2e/run.py`` and snapshot what it measured."""
    command = [sys.executable, str(E2E_RUN)]
    if workloads:
        command += ["--workloads", ",".join(workloads)]
    if quick:
        command += ["--seconds", str(E2E_QUICK_SECONDS)]
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "run.json"
        returncode = subprocess.run(command + ["--out", str(out)]).returncode
        if not out.exists():
            return returncode or 1
        collected = json.loads(out.read_text())
    for doc in e2e_documents(collected).values():
        write_document(doc, output_dir)
    return returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SAMPLES} timed pass a load instead of "
                             f"{FULL_SAMPLES}; with --e2e, "
                             f"{E2E_QUICK_SECONDS} s a workload (CI)")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated loads, or e2e workloads with "
                             "--e2e (default: all)")
    parser.add_argument("--output-dir", type=Path, default=REPO_ROOT,
                        help="where BENCH_<name>.json files are written")
    parser.add_argument("--list", action="store_true",
                        help="list the loads and exit")
    parser.add_argument("--e2e", action="store_true",
                        help="run benchmarks/e2e/run.py and write "
                             "BENCH_e2e_<workload>.json")
    args = parser.parse_args(argv)
    names = [n.strip() for n in (args.scenarios or "").split(",")
             if n.strip()]

    if args.e2e:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        return run_e2e(names, args.quick, args.output_dir)

    if args.list:
        for name, load in LOADS.items():
            print(f"{name:24s} {load.__doc__}")
        return 0

    unknown = [n for n in names if n not in LOADS]
    if unknown:
        parser.error(f"unknown scenarios: {', '.join(unknown)}")
    args.output_dir.mkdir(parents=True, exist_ok=True)
    samples = QUICK_SAMPLES if args.quick else FULL_SAMPLES
    incorrect = []
    for name in names or LOADS:
        print(f"running {name} ({samples} timed passes)...", flush=True)
        doc = run_load(name, samples)
        write_document(doc, args.output_dir)
        if not doc["correct"]:
            incorrect.append(name)
    if incorrect:
        print(f"incorrect outputs on: {', '.join(incorrect)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
