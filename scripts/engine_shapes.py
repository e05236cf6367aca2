#!/usr/bin/env python
"""Time the reference engine on inputs that shape its event queue.

Usage::

    python scripts/engine_shapes.py PARENT CHANGE [--rounds 5] \\
        [--shapes NAME[,NAME...]]

PARENT and CHANGE are two checkouts of the repository.  Each shape is one
reference-engine run (``SimulationEngine.run()`` alone, build excluded) of
the end-to-end benchmark's two engine scenarios, as they are or with one
property of the queue's input changed:

* ``*_fixed``: every copy is delayed by exactly 1.0.  Ticks fall on the
  same multiples of the tick interval for every process, so the copies sent
  at one tick share one delivery time, and no bucket width splits them.
* ``*_farcrash``: one more process crashes at t=1000, far past the traffic.
  Its crash event is queued from the start.

Each round runs every shape once per checkout, each run in a fresh
interpreter, the two sides taking turns to go first.  The script prints one
markdown row per shape: each side's fastest and median run time, the ratio
of the medians, and in how many rounds the change was faster.  It exits
non-zero if the two sides dispatched a different number of events or
stopped at a different time on any shape.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

SIDES = ("parent", "change")
SHAPES = ("quiescence", "quiescence_fixed", "quiescence_farcrash",
          "flood", "flood_fixed", "flood_farcrash")


def build(shape: str) -> Any:
    """The :class:`Scenario` of *shape*, from the checkout on ``sys.path``."""
    from repro.experiments.config import Scenario
    from repro.network.delay import DelaySpec
    from repro.network.loss import LossSpec

    base, _, variant = shape.partition("_")
    if base == "quiescence":
        scenario = Scenario(
            name="shape-quiescence", algorithm="algorithm2", n_processes=24,
            seed=1234, loss=LossSpec.bernoulli(0.05),
            delay=DelaySpec.uniform(0.05, 0.5), workload="burst",
            metadata={"burst_size": 4}, stop_when_quiescent=True,
            drain_grace_period=2.0, max_time=400.0)
    else:
        scenario = Scenario(
            name="shape-flood", algorithm="algorithm1", n_processes=14,
            seed=1234, loss=LossSpec.bernoulli(0.2),
            delay=DelaySpec.uniform(0.05, 0.5), workload="all_to_all",
            crashes={0: 1.8, 1: 4.2}, max_time=6.0)
    if variant == "fixed":
        return scenario.with_(delay=DelaySpec.fixed(1.0))
    if variant == "farcrash":
        last = scenario.n_processes - 1
        return scenario.with_(crashes={**scenario.crashes, last: 1000.0})
    return scenario


def child(shape: str) -> None:
    """Run *shape* once on the reference engine; print the result line."""
    import time

    from repro.experiments import runner
    from repro.simulation.metrics import MetricsCollector, MetricsLevel
    from repro.simulation.tracing import TraceLevel, TraceRecorder

    built = runner.build_engine(build(shape).with_(engine="reference"))
    built.trace = TraceRecorder(enabled=True, level=TraceLevel.DELIVERIES)
    built.metrics = MetricsCollector(level=MetricsLevel.COUNTERS)
    started = time.perf_counter()
    result = built.run()
    seconds = time.perf_counter() - started
    print(json.dumps({"seconds": seconds,
                      "events": result.event_stats.total,
                      "final_time": result.final_time}))


def run_once(tree: Path, shape: str) -> dict[str, Any]:
    """One run of *shape* on *tree*'s source: its JSON result line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", shape],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {shape} exited with code "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--shapes", default=",".join(SHAPES))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if args.change is None:
        parser.error("PARENT and CHANGE are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    shapes = args.shapes.split(",")
    runs: dict[tuple[str, str], list[dict[str, Any]]] = {
        (shape, side): [] for shape in shapes for side in SIDES}
    for round_ in range(args.rounds):
        for shape in shapes:
            for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
                runs[shape, side].append(run_once(trees[side], shape))
    print(f"reference engine run, {args.rounds} rounds")
    print("| shape | parent min / median (s) | change min / median (s) "
          "| ratio | change faster |")
    print("|---|---|---|---|---|")
    mismatched = []
    for shape in shapes:
        parent, change = ([run["seconds"] for run in runs[shape, side]]
                          for side in SIDES)
        faster = sum(c < p for p, c in zip(parent, change))
        ratio = statistics.median(change) / statistics.median(parent)
        print(f"| {shape} | {min(parent):.3f} / "
              f"{statistics.median(parent):.3f} | {min(change):.3f} / "
              f"{statistics.median(change):.3f} | {ratio:.3f} "
              f"| {faster}/{len(parent)} |")
        outcomes = {(run["events"], run["final_time"])
                    for side in SIDES for run in runs[shape, side]}
        if len(outcomes) != 1:
            mismatched.append(shape)
    if mismatched:
        print(f"different runs on: {', '.join(mismatched)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
