"""Compare two full runs of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are result files written by ``run.py`` without ``--workload``
(``out/run.seed<seed>.json``); A is the parent, B the change.  Every
(workload, metric) pair gets one verdict:

* end-to-end metrics use their ``bound`` and ``better`` from
  ``BENCHMARK.json``: ``regressed`` when B's median is worse than A's by more
  than the bound, ``unresolved`` when the pass-to-pass spread of either run
  (quartile distance over median) is wider than the bound — unless every
  sample of B reads better than every sample of A — and ``ok`` otherwise;
* per-layer metrics whose unit is a count repeat exactly for one seed, so
  any difference is ``regressed``;
* the other per-layer metrics have no bound and are listed as ``info``.

Exits 1 if anything regressed, 2 if the two runs cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent.parent

#: Units of metrics that are counted, not timed: they repeat exactly.
EXACT_UNITS = frozenset({"count", "count/count", "sim_s"})


def spread(samples: list[float]) -> float:
    """Quartile distance over median (0 for fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (high - low) / abs(median) if median else 0.0


def verdict(parent: dict[str, Any], change: dict[str, Any], *,
            better: str, bound: Optional[float]) -> str:
    """Verdict for one metric; *bound* ``None`` means per-layer."""
    if bound is None:
        if parent["unit"] in EXACT_UNITS:
            return "ok" if parent["value"] == change["value"] else "regressed"
        return "info"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["value"] - parent["value"]) / abs(parent["value"])
    if worse_by > bound:
        return "regressed"
    if max(spread(parent["samples"]), spread(change["samples"])) > bound:
        if parent["samples"] and change["samples"] and all(
                sign * b < sign * a
                for a in parent["samples"] for b in change["samples"]):
            return "ok"
        return "unresolved"
    return "ok"


def compare(parent: dict[str, Any], change: dict[str, Any],
            spec: dict[str, Any]) -> list[tuple[str, str, float, float, str]]:
    """``(workload, metric, parent value, change value, verdict)`` rows."""
    rules = {entry["name"]: (entry["better"], entry.get("bound"))
             for entry in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for workload, before in parent["workloads"].items():
        after = change["workloads"].get(workload)
        if after is None:
            continue
        for metric, (better, bound) in rules.items():
            if metric not in before["metrics"] or \
                    metric not in after["metrics"]:
                continue
            old, new = before["metrics"][metric], after["metrics"][metric]
            rows.append((workload, metric, old["value"], new["value"],
                         verdict(old, new, better=better, bound=bound)))
        # A gain does not count when more operations fail than before.
        rows.append((workload, "failed", before["failed"], after["failed"],
                     "ok" if after["failed"] <= before["failed"]
                     else "regressed"))
    return rows


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in args)
    if parent["seed"] != change["seed"]:
        sys.stderr.write(
            f"seeds differ ({parent['seed']} vs {change['seed']}): the "
            "simulated counts of the two runs cannot be compared\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(parent, change, spec)
    for workload, metric, old, new, outcome in rows:
        delta = (new - old) / abs(old) * 100.0 if old else 0.0
        sys.stdout.write(f"{workload:16} {metric:34} {old:14.6g} "
                         f"{new:14.6g} {delta:+8.2f}%  {outcome}\n")
    counts = {outcome: sum(1 for row in rows if row[4] == outcome)
              for outcome in ("ok", "regressed", "unresolved", "info")}
    sys.stdout.write(", ".join(f"{count} {outcome}"
                               for outcome, count in counts.items()) + "\n")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
