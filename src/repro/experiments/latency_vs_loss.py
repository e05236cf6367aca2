"""E2 — Delivery latency vs. channel loss probability (Figure 1).

The fair lossy channel model makes retransmission (Task 1) the only liveness
mechanism; as the per-copy loss probability grows, more retransmission rounds
are needed before a majority (Algorithm 1) or the whole correct set
(Algorithm 2) acknowledges, so mean delivery latency grows.  This experiment
produces the latency-vs-p curve for both algorithms.
"""

from __future__ import annotations

from typing import Optional

from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import algorithm1_scenario, algorithm2_scenario, mean_of, seeds_for
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E2"
TITLE = "Delivery latency vs. loss probability"

#: Process count used for the curve.
N_PROCESSES = 7


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E2 and return its figure (one series per algorithm)."""
    n_seeds = seeds_for(quick, seeds)
    probabilities = (0.0, 0.2, 0.4) if quick else (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    algorithms = ("algorithm1", "algorithm2")
    suite = ScenarioSuite("E2")
    for base in (algorithm1_scenario(n_processes=N_PROCESSES),
                 algorithm2_scenario(n_processes=N_PROCESSES)):
        suite.add_sweep(
            base.with_(name=f"E2-{base.algorithm}"),
            "loss",
            probabilities,
            groups=[f"{base.algorithm} p={p}" for p in probabilities],
            scenario_builder=lambda scenario, p: scenario.with_(
                loss=LossSpec.bernoulli(p) if p else LossSpec.none()
            ),
        )
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()
    artifacts = []
    rows_combined = []
    for algorithm in algorithms:
        rows = []
        for p in probabilities:
            results = groups[f"{algorithm} p={p}"]
            mean = mean_of(results, lambda r: r.metrics.mean_latency)
            worst = mean_of(results, lambda r: r.metrics.max_latency)
            rows.append([p, mean, worst])
            rows_combined.append([algorithm, p, mean, worst])
        artifacts.append(
            ExperimentArtifact(
                name=f"Figure 1{'a' if algorithm == 'algorithm1' else 'b'} — "
                     f"{algorithm} latency vs loss",
                kind="figure",
                headers=["loss p", "mean latency", "mean max latency"],
                rows=rows,
            )
        )
    artifacts.append(
        ExperimentArtifact(
            name="Figure 1 — combined series",
            kind="figure",
            headers=["algorithm", "loss p", "mean latency", "mean max latency"],
            rows=rows_combined,
            notes="Latency is measured from URB_broadcast to each URB_deliver.",
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=artifacts,
        parameters={"seeds": n_seeds, "n": N_PROCESSES, "quick": quick},
        notes=(
            "Expected shape: latency grows with p for both algorithms; "
            "Algorithm 1 delivers slightly earlier (majority of ACKs) than "
            "Algorithm 2 (ACKs covering an AΘ pair, i.e. all correct "
            "processes under the default prescient oracle)."
        ),
    )
