"""E1 — Correctness matrix (Table 1).

Exercises Theorems 1 and 3: both algorithms satisfy Validity, Uniform
Agreement and Uniform Integrity across process counts, crash counts and loss
rates — Algorithm 1 within its ``t < n/2`` envelope, Algorithm 2 with any
number of crashes.  Every cell of the matrix is replicated over several seeds
and reports the fraction of runs on which each property held.
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

EXPERIMENT_ID = "E1"
TITLE = "Correctness matrix: URB properties across n, crashes and loss"


def _configurations(quick: bool):
    """The (algorithm, n, crashes, loss) grid of the matrix."""
    if quick:
        ns = (5,)
        losses = (0.2,)
    else:
        ns = (4, 5, 7)
        losses = (0.0, 0.3)
    for n in ns:
        for loss in losses:
            # Algorithm 1: crash counts within the majority envelope.
            for crashes in {0, (n - 1) // 2}:
                yield ("algorithm1", n, crashes, loss)
            # Algorithm 2: up to n-1 crashes (no majority needed).
            for crashes in {0, n // 2, n - 2 if n > 2 else 0, n - 1}:
                yield ("algorithm2", n, crashes, loss)


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E1 and return its table."""
    n_seeds = seeds_for(quick, seeds)
    configurations = list(_configurations(quick))
    suite = ScenarioSuite("E1")
    for algorithm, n, crashes, loss in configurations:
        base = algorithm1_scenario() if algorithm == "algorithm1" else algorithm2_scenario()
        suite.add(base.with_(
            name=f"E1-{algorithm}-n{n}-c{crashes}-p{loss}",
            n_processes=n,
            crashes=crash_last(n, crashes, time=2.0),
            loss=LossSpec.bernoulli(loss) if loss else LossSpec.none(),
            workload="two_senders",
        ))
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()
    rows = [
        [
            *configuration,
            len(results),
            count_of(results, lambda r: r.verdict.validity.holds),
            count_of(results, lambda r: r.verdict.uniform_agreement.holds),
            count_of(results, lambda r: r.verdict.uniform_integrity.holds),
            count_of(results, all_correct_delivered),
        ]
        for configuration, results in zip(configurations, groups.values())
    ]
    table = ExperimentArtifact(
        name="Table 1 — URB property verdicts",
        kind="table",
        headers=[
            "algorithm", "n", "crashes", "loss p", "runs",
            "validity ok", "agreement ok", "integrity ok", "all delivered",
        ],
        rows=rows,
        notes=(
            "Each property column counts the runs (out of 'runs') on which the "
            "property held; 'all delivered' counts runs where every correct "
            "process delivered every broadcast message by the end of the run."
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[table],
        parameters={"seeds": n_seeds, "quick": quick},
        notes=(
            "Reproduces the paper's Theorems 1 and 3 empirically: all runs in "
            "every configuration must satisfy the three URB properties."
        ),
    )
