#!/usr/bin/env python
"""Run the benchmark harness and emit/compare ``BENCH_*.json`` results.

Usage (from the repository root)::

    python scripts/bench.py --quick                 # CI's configuration
    python scripts/bench.py --scenarios a,b --repeat 3
    python scripts/bench.py --quick --update-baseline
    python scripts/bench.py --list
    python scripts/bench.py --e2e [--quick] [--scenarios WORKLOAD,...]

Each scenario writes ``BENCH_<name>.json`` into ``--output-dir`` (the
repository root by default).  When a committed baseline exists
(``benchmarks/baseline.json``), results are compared against it and the
script exits non-zero if any scenario's normalized score regressed by more
than ``--tolerance`` (default 25%).

``--e2e`` runs the end-to-end benchmark instead, unchanged
(``benchmarks/e2e/run.py``: every workload, or those ``--scenarios``
names, each in a fresh interpreter, at its golden seed, 3 s a workload
with ``--quick``), and writes each workload's end-to-end metrics to
``BENCH_e2e_<workload>.json``.  It exits non-zero when the benchmark
reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import harness  # noqa: E402  (needs the path setup above)

E2E_RUN = REPO_ROOT / "benchmarks" / "e2e" / "run.py"
#: Seconds of passes per workload with ``--e2e --quick`` (CI's setting).
E2E_QUICK_SECONDS = 3


def e2e_documents(collected: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """``BENCH_e2e_<workload>.json`` contents from one ``run.py`` result
    file: each workload's metrics with their units and samples."""
    return {
        workload: {
            "name": f"e2e_{workload}",
            "workload": workload,
            "seed": collected["seed"],
            "seconds": collected["seconds"],
            "correct": entry["failed"] == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": entry["metrics"],
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        for workload, entry in collected["workloads"].items()
    }


def run_e2e(workloads: list[str] | None, quick: bool,
            output_dir: Path) -> int:
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
    for workload, document in e2e_documents(collected).items():
        path = output_dir / f"BENCH_e2e_{workload}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"  {workload}: " + ", ".join(
            f"{name}={metric['value']:.4g} {metric['unit']}"
            for name, metric in document["metrics"].items()) + f" -> {path.name}")
    return returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes (CI configuration)")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated scenario names (default: "
                             "every registered scenario)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="best-of-N repetitions per scenario")
    parser.add_argument("--output-dir", type=Path, default=REPO_ROOT,
                        help="where BENCH_<name>.json files are written")
    parser.add_argument("--baseline", type=Path,
                        default=harness.DEFAULT_BASELINE,
                        help="baseline file to compare against")
    parser.add_argument("--tolerance", type=float,
                        default=harness.DEFAULT_TOLERANCE,
                        help="allowed fractional regression before failing")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write results to the baseline file instead of "
                             "failing on regression")
    parser.add_argument("--no-compare", action="store_true",
                        help="skip the baseline comparison entirely")
    parser.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--e2e", action="store_true",
                        help="run benchmarks/e2e/run.py (--scenarios then "
                             "names its workloads) and write "
                             "BENCH_e2e_<workload>.json")
    args = parser.parse_args(argv)

    if args.e2e:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        workloads = [n.strip() for n in (args.scenarios or "").split(",")
                     if n.strip()]
        return run_e2e(workloads, args.quick, args.output_dir)

    if args.list:
        for name, spec in sorted(harness.BENCH_SCENARIOS.items()):
            print(f"{name:24s} {spec.description}")
        return 0

    if args.scenarios:
        names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
        unknown = [n for n in names if n not in harness.BENCH_SCENARIOS]
        if unknown:
            parser.error(f"unknown scenarios: {', '.join(unknown)}")
    else:
        names = list(harness.BENCH_SCENARIOS)

    args.output_dir.mkdir(parents=True, exist_ok=True)
    print("calibrating...", flush=True)
    calibration = harness.calibrate()
    print(f"calibration: {calibration:.2f} Mop/s")

    results = []
    for name in names:
        print(f"running {name}...", flush=True)
        result = harness.run_benchmark(
            name, quick=args.quick, repeat=args.repeat,
            calibration_mops=calibration,
        )
        path = result.write(args.output_dir)
        print(
            f"  {result.wall_time_s:8.3f}s  "
            f"{result.events_per_sec:12.1f} events/s  "
            f"{result.ops_per_sec:12.1f} ops/s  "
            f"rss={result.peak_rss_kb}KiB  -> {path.name}"
        )
        results.append(result)

    if args.update_baseline:
        harness.save_baseline(args.baseline, results)
        print(f"baseline updated: {args.baseline}")
        return 0

    if args.no_compare or not args.baseline.exists():
        if not args.baseline.exists():
            print(f"no baseline at {args.baseline}; skipping comparison")
        return 0

    baseline = harness.load_baseline(args.baseline)
    comparisons = harness.compare_to_baseline(
        results, baseline, tolerance=args.tolerance
    )
    regressed = False
    for comparison in comparisons:
        print(comparison.describe())
        regressed = regressed or comparison.regressed
    if regressed:
        print(f"FAIL: regression beyond {args.tolerance:.0%} tolerance")
        return 1
    print("benchmark comparison passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
