"""E5 — Scalability with the number of processes (Figure 4).

One URB-broadcast costs Θ(n²) MSG copies per retransmission round plus Θ(n²)
ACK copies per received MSG copy (every reception triggers an n-way ACK
broadcast), so the total traffic to deliver a single message grows roughly
cubically with n while the delivery latency stays roughly flat (all ACK
streams progress in parallel).  This experiment measures mean delivery
latency and total sends-to-delivery as n grows, for both algorithms.
"""

from __future__ import annotations

from typing import Optional

from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import algorithm1_scenario, algorithm2_scenario, mean_of, seeds_for
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E5"
TITLE = "Scalability: latency and traffic vs. number of processes"

LOSS_P = 0.1


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E5 and return its figure."""
    n_seeds = seeds_for(quick, seeds)
    sizes = (3, 6, 10) if quick else (3, 5, 7, 10, 15, 20)
    algorithms = ("algorithm1", "algorithm2")
    suite = ScenarioSuite("E5")
    for base in (
        algorithm1_scenario(),
        algorithm2_scenario(drain_grace_period=0.0,
                            stop_when_quiescent=False,
                            stop_when_all_correct_delivered=True),
    ):
        suite.add_sweep(
            base.with_(name=f"E5-{base.algorithm}", loss=LossSpec.bernoulli(LOSS_P)),
            "n_processes",
            sizes,
            groups=[f"{base.algorithm} n={n}" for n in sizes],
        )
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()
    rows_combined = []
    artifacts = []
    for algorithm in algorithms:
        rows = []
        for n in sizes:
            results = groups[f"{algorithm} n={n}"]
            latency = mean_of(results, lambda r: r.metrics.mean_latency)
            sends = mean_of(results, lambda r: r.metrics.total_sends)
            per_delivery = sends / n if sends is not None else None
            rows.append([n, latency, sends, per_delivery])
            rows_combined.append([algorithm, n, latency, sends])
        artifacts.append(
            ExperimentArtifact(
                name=f"Figure 4{'a' if algorithm == 'algorithm1' else 'b'} — "
                     f"{algorithm} scalability",
                kind="figure",
                headers=["n", "mean latency", "mean sends to delivery",
                         "sends per process"],
                rows=rows,
            )
        )
    artifacts.append(
        ExperimentArtifact(
            name="Figure 4 — combined series",
            kind="figure",
            headers=["algorithm", "n", "mean latency", "mean sends to delivery"],
            rows=rows_combined,
            notes=(
                "Both algorithms stop as soon as every correct process has "
                "delivered, so 'sends to delivery' compares like with like."
            ),
        )
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=artifacts,
        parameters={"seeds": n_seeds, "loss": LOSS_P, "quick": quick},
        notes=(
            "Expected shape: latency roughly flat in n; traffic grows "
            "super-linearly (≈ n² per retransmission round, ≈ n³ in total)."
        ),
    )
