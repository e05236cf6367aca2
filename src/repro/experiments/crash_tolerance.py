"""E8 — Crash tolerance (Table 3).

Algorithm 1 requires a majority of correct processes: with ``t ≥ n/2``
initial crashes it can never collect a majority of acknowledgements and
blocks (it stays safe but delivers nothing).  Algorithm 2, armed with AΘ and
AP\\*, delivers with **any** number of crashes (up to ``n−1``).  This
experiment crashes ``k`` processes at time zero for ``k = 0 … n−1`` and
reports which algorithm still delivers.
"""

from __future__ import annotations

from typing import Optional

from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import (
    algorithm1_scenario,
    algorithm2_scenario,
    all_correct_delivered,
    count_of,
    crash_last,
    seeds_for,
)
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E8"
TITLE = "Crash tolerance: delivery with k initial crashes"

N_PROCESSES = 8
LOSS_P = 0.2


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E8 and return its table."""
    n_seeds = seeds_for(quick, seeds)
    crash_counts = (0, 3, 4, 7) if quick else tuple(range(N_PROCESSES))
    configurations = []
    suite = ScenarioSuite("E8")
    for k in crash_counts:
        for algorithm, base in (
            ("algorithm1", algorithm1_scenario(max_time=60.0)),
            ("algorithm2", algorithm2_scenario(max_time=120.0)),
        ):
            configurations.append((algorithm, k))
            suite.add(base.with_(
                name=f"E8-{algorithm}-k{k}",
                n_processes=N_PROCESSES,
                crashes=crash_last(N_PROCESSES, k, time=0.0),
                loss=LossSpec.bernoulli(LOSS_P),
            ))
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()
    rows = [
        [
            algorithm,
            k,
            k < N_PROCESSES / 2,
            len(results),
            count_of(results, all_correct_delivered),
            count_of(results, lambda r: r.verdict.validity.holds),
            count_of(results, lambda r: r.verdict.uniform_agreement.holds),
            count_of(results, lambda r: r.verdict.uniform_integrity.holds),
        ]
        for (algorithm, k), results in zip(configurations, groups.values())
    ]
    table = ExperimentArtifact(
        name="Table 3 — delivery vs number of initial crashes",
        kind="table",
        headers=["algorithm", "initial crashes k", "correct majority?",
                 "runs", "runs fully delivered", "validity ok",
                 "agreement ok", "integrity ok"],
        rows=rows,
        notes=(
            "Algorithm 1 only delivers while a correct majority remains "
            "(k < n/2); beyond that it blocks: the safety properties "
            "(Uniform Agreement, Uniform Integrity) still hold but the "
            "liveness property Validity is violated — the correct broadcaster "
            "never manages to deliver its own message.  Algorithm 2 delivers "
            "and satisfies all three properties for every k up to n-1."
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[table],
        parameters={"seeds": n_seeds, "n": N_PROCESSES, "loss": LOSS_P,
                    "quick": quick},
        notes="Quantifies the availability gap the failure detectors close.",
    )
