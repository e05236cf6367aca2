#!/usr/bin/env python
"""Alternating parent/change pairs of end-to-end workloads.

Usage::

    python scripts/pairs.py PARENT CHANGE --workload NAME[,NAME...] \\
        [--pairs 10] [--seed 1234] [--seconds 18]

PARENT and CHANGE are two checkouts of the repository.  The script first
deletes every ``__pycache__`` in both, so that neither side starts with
compiled bytecode the other lacks.  It then makes ``--pairs`` pairs of
runs of ``benchmarks/e2e/run.py --workload NAME --trace 0``, each run in a
fresh interpreter from its own checkout, the two sides taking turns to go
first.  With several workloads, each round makes one pair of every workload
in turn, so that a slow spell of the machine falls on all of them alike
rather than on the pairs of one.  It prints one table per workload, one
markdown row per end-to-end metric of ``BENCHMARK.json``: the parent's
median, the change's median, their ratio, in how many pairs the change was
better, the parent's interquartile range, the metric's ``bound`` and
``PAST`` when the change's median is worse than the parent's by more than
``bound`` times the parent's median.  It exits non-zero, naming the
workload and metric, if any row is past its bound, and if any run reported
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

SIDES = ("parent", "change")


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int,
             seconds: int) -> dict[str, Any]:
    """One run of *tree*'s end-to-end benchmark: its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited with code "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def past_bound(metric: dict[str, Any], parent: float, change: float) -> bool:
    """Whether *change* is worse than *parent* by more than the metric's
    ``bound`` times *parent*."""
    worse = change - parent if metric["better"] == "lower" else parent - change
    return worse > metric["bound"] * parent


def table(metrics: list[dict[str, Any]],
          runs: dict[str, list[dict[str, Any]]]) -> tuple[list[str], list[str]]:
    """One markdown row per metric of *metrics* over the paired *runs*, and
    the names of the metrics past their bound."""
    rows = ["| metric | parent median | change median | ratio "
            "| change better | parent IQR | bound | past bound |",
            "|---|---|---|---|---|---|---|---|"]
    past: list[str] = []
    for metric in metrics:
        name = metric["name"]
        parent, change = ([run["metrics"][name]["value"] for run in runs[side]]
                          for side in SIDES)
        lower = metric["better"] == "lower"
        better = sum((c < p) if lower else (c > p)
                     for p, c in zip(parent, change))
        p_median = statistics.median(parent)
        c_median = statistics.median(change)
        ratio = c_median / p_median if p_median else float("nan")
        flagged = past_bound(metric, p_median, c_median)
        if flagged:
            past.append(name)
        rows.append(f"| {name} | {p_median:.6g} | {c_median:.6g} "
                    f"| {ratio:.3f} | {better}/{len(parent)} "
                    f"| {iqr(parent):.3g} | {metric['bound']} "
                    f"| {'PAST' if flagged else 'ok'} |")
    return rows, past


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=int, default=18)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        clear_bytecode(tree)
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload.split(",")
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {
        workload: {side: [] for side in SIDES} for workload in workloads}
    for pair in range(args.pairs):
        for workload in workloads:
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result = run_once(trees[side], workload, args.seed,
                                  args.seconds)
                runs[workload][side].append(result)
                print(f"{workload} pair {pair + 1} {side}: " + " ".join(
                    f"{name}={entry['value']:.6g}"
                    for name, entry in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    incorrect: list[str] = []
    past: list[str] = []
    for workload in workloads:
        print(f"{workload}, seed {args.seed}, --seconds {args.seconds}, "
              f"{args.pairs} pairs")
        rows, flagged = table(declared["end_to_end"], runs[workload])
        print("\n".join(rows), flush=True)
        past += [f"{workload} {name}" for name in flagged]
        incorrect += [side for side in SIDES
                      for run in runs[workload][side] if not run["correct"]]
    if past:
        print(f"past bound: {', '.join(past)}")
    if incorrect:
        print(f"incorrect output: {len(incorrect)} run(s) "
              f"({', '.join(sorted(set(incorrect)))})")
    return 1 if past or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
