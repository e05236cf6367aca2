"""E3 — Cumulative message count over time (Figure 2).

The paper's central qualitative difference between the two algorithms:
Algorithm 1 is **non-quiescent** (every correct process re-broadcasts every
URB-delivered message forever, so the cumulative send count grows linearly
until the horizon), while Algorithm 2 **quiesces** (once every correct
process has acknowledged, messages are retired from ``MSG`` and the send
curve flattens).  This experiment runs both algorithms on the same workload
and horizon (no early stopping) and samples the cumulative send curve.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.quiescence import cumulative_send_curve
from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import count_of, mean_of, seeds_for
from .config import Scenario
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E3"
TITLE = "Cumulative messages over time: non-quiescence vs quiescence"

N_PROCESSES = 6
LOSS_P = 0.2
HORIZON = 80.0
CURVE_POINTS = 17


def _scenario(algorithm: str, horizon: float) -> Scenario:
    return Scenario(
        name=f"E3-{algorithm}",
        algorithm=algorithm,
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(LOSS_P),
        max_time=horizon,
        # No early stopping: the whole point is to observe the tail.
        stop_when_all_correct_delivered=False,
        stop_when_quiescent=False,
    )


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E3 and return the send-curve figure plus a summary table."""
    n_seeds = seeds_for(quick, seeds)
    horizon = HORIZON / 2 if quick else HORIZON
    algorithms = ("algorithm1", "algorithm2")
    suite = ScenarioSuite("E3").add_many(
        _scenario(algorithm, horizon) for algorithm in algorithms)
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()
    curves: dict[str, list[list[float]]] = {}
    summary_rows = []
    for algorithm, results in zip(algorithms, groups.values()):
        per_seed_curves = [
            cumulative_send_curve(r.simulation, n_points=CURVE_POINTS)
            for r in results
        ]
        # Average the cumulative counts pointwise across seeds.
        averaged = []
        for i in range(CURVE_POINTS):
            t = per_seed_curves[0][i][0]
            mean_count = sum(curve[i][1] for curve in per_seed_curves) / len(
                per_seed_curves
            )
            averaged.append([t, mean_count])
        curves[algorithm] = averaged
        summary_rows.append([
            algorithm,
            len(results),
            mean_of(results, lambda r: r.metrics.total_sends),
            mean_of(results, lambda r: r.quiescence.last_send_time or 0.0),
            count_of(results, lambda r: r.quiescence.quiescent),
        ])

    figure_rows = [
        [curves["algorithm1"][i][0],
         curves["algorithm1"][i][1],
         curves["algorithm2"][i][1]]
        for i in range(CURVE_POINTS)
    ]
    figure = ExperimentArtifact(
        name="Figure 2 — cumulative sends over time",
        kind="figure",
        headers=["time", "algorithm1 cumulative sends", "algorithm2 cumulative sends"],
        rows=figure_rows,
        notes=(
            "Algorithm 1 keeps climbing until the horizon (non-quiescent); "
            "Algorithm 2 flattens shortly after every correct process has "
            "acknowledged (quiescent)."
        ),
    )
    summary = ExperimentArtifact(
        name="Table — totals and quiescence",
        kind="table",
        headers=["algorithm", "runs", "mean total sends", "mean last send time",
                 "quiescent runs"],
        rows=summary_rows,
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[figure, summary],
        parameters={
            "seeds": n_seeds, "n": N_PROCESSES, "loss": LOSS_P,
            "horizon": horizon, "quick": quick,
        },
        notes="Reproduces the quiescence claim of Theorem 3 quantitatively.",
    )
