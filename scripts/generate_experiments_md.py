#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md by running every registered experiment.

Usage::

    python scripts/generate_experiments_md.py [--seeds 3] [--quick]

The file records, for every experiment (the paper has no measured tables or
figures, so these are the library's paper-style evaluation artefacts — see
DESIGN.md §4): the claim from the paper it exercises, the expected shape of
the result, and the tables/series actually measured by this run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import registry

#: Per-experiment claim text: what the paper states, and what shape the
#: measured result must therefore have.
CLAIMS = {
    "E1": (
        "Theorems 1 and 3: Algorithm 1 implements URB whenever a majority of "
        "processes is correct; Algorithm 2 implements URB with any number of "
        "crashes when enriched with AΘ and AP*.",
        "Every run in every configuration satisfies Validity, Uniform "
        "Agreement and Uniform Integrity (all three 'ok' columns equal the "
        "'runs' column).",
    ),
    "E2": (
        "§II/§III: fair lossy channels only guarantee delivery through "
        "retransmission, so loss slows delivery but never breaks it; the "
        "'fast delivery' remark notes Algorithm 1 can deliver on ACKs alone.",
        "Mean delivery latency grows with the loss probability for both "
        "algorithms; Algorithm 1 delivers slightly earlier than Algorithm 2 "
        "(majority of ACKs vs ACKs from every correct process).",
    ),
    "E3": (
        "§V-B/Theorem 3: Algorithm 1 is non-quiescent (correct processes "
        "broadcast delivered messages forever); Algorithm 2 is quiescent.",
        "Algorithm 1's cumulative send count grows linearly until the "
        "horizon; Algorithm 2's flattens shortly after delivery and its runs "
        "are flagged quiescent.",
    ),
    "E4": (
        "Theorem 3: Algorithm 2 eventually stops sending in every run.",
        "Quiescence is reached in every run; the time of the last send grows "
        "with the loss probability and with the AP* detection delay.",
    ),
    "E5": (
        "Algorithm structure (§III/§VI): one broadcast costs Θ(n²) MSG copies "
        "per retransmission round plus an n-way ACK broadcast per reception.",
        "Latency stays roughly flat in n while total traffic to delivery "
        "grows super-linearly.",
    ),
    "E6": (
        "Theorem 2: URB is unsolvable in the bare model when t >= n/2; the "
        "proof's run R2 partitions the system and crashes the delivering "
        "half.",
        "With a sub-majority ACK threshold every adversarial run delivers on "
        "the S1 side and violates Uniform Agreement; with the proper "
        "majority threshold every run blocks instead (safe but not live).",
    ),
    "E7": (
        "§V: the failure detectors are oracles; realistic implementations "
        "converge after a detection delay, which affects only liveness.",
        "Mean delivery latency and quiescence time grow with the detection "
        "delay; the URB properties hold for every delay (safety unaffected).",
    ),
    "E8": (
        "§III vs §VI: Algorithm 1 requires t < n/2; Algorithm 2 tolerates up "
        "to n-1 crashes.",
        "Algorithm 1 stops delivering (Validity fails, safety holds) once "
        "half or more of the processes crash; Algorithm 2 delivers and "
        "satisfies all properties for every crash count.",
    ),
    "E9": (
        "§I motivation: weaker broadcast abstractions lose messages or leave "
        "the system inconsistent when senders crash over lossy channels.",
        "best_effort reaches only partial coverage and violates agreement; "
        "the URB protocols reach full coverage and preserve uniform "
        "agreement in every run.",
    ),
    "E10": (
        "Design choices documented in DESIGN.md §3.3/§3.4 (oracle "
        "dissemination policy, retirement rule, strict vs robust counter "
        "comparison, fairness guard, eager first broadcast).",
        "The paper's configuration (prescient oracle, retirement enabled) "
        "delivers, quiesces and satisfies URB even with a minority of "
        "correct processes; disabling retirement removes quiescence; the "
        "strict equality variant is more brittle under converging detectors.",
    ),
}

HEADER = """\
# EXPERIMENTS — paper claims vs. measured results

The paper (Tang, Larrea, Arévalo, Jiménez 2015) is a theory paper: it proves
its claims and reports **no measured tables or figures**.  The experiments
below are therefore the evaluation suite this reproduction defines for it
(DESIGN.md §4 maps each one to the paper claim it exercises and to the
modules/benchmarks that implement it).  For every experiment this file
records the claim, the expected shape of the result, and the actual numbers
measured on this machine.

* Regenerate with: `python scripts/generate_experiments_md.py`
* Run a single experiment: `python -m repro run E3`

Numbers vary slightly with the seed set and machine; the *shapes* asserted in
the "Expected shape" paragraphs are also checked mechanically by the
integration tests (`tests/integration/test_experiments_and_cli.py`).
"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent / "EXPERIMENTS.md")
    args = parser.parse_args()

    sections = [HEADER]
    for experiment_id in registry.experiment_ids():
        entry = registry.get_experiment(experiment_id)
        started = time.time()
        result = entry.run(seeds=args.seeds, quick=args.quick)
        elapsed = time.time() - started
        claim, expectation = CLAIMS[experiment_id]
        sections.append(f"\n## {experiment_id} — {entry.TITLE}\n")
        sections.append(f"**Paper claim.** {claim}\n")
        sections.append(f"**Expected shape.** {expectation}\n")
        params = ", ".join(f"{k}={v}" for k, v in sorted(result.parameters.items()))
        sections.append(f"**Run parameters.** {params} (wall-clock {elapsed:.1f}s)\n")
        sections.append("**Measured.**\n")
        sections.append("```text")
        for artifact in result.artifacts:
            sections.append(artifact.render())
            sections.append("")
        sections.append("```")
        print(f"{experiment_id}: done in {elapsed:.1f}s", file=sys.stderr)

    args.output.write_text("\n".join(sections) + "\n", encoding="utf-8")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
