"""E10 — Ablations of the design choices (Table 5).

Each ablation flips one design decision called out in DESIGN.md and measures
what breaks (or does not):

* **a) FD dissemination policy** — the prescient ``CORRECT_ONLY`` oracle vs
  the detection-based ``ALL_PROCESSES`` oracle in a *minority-correct* run.
  The detection-based oracle does not satisfy AΘ-accuracy without a correct
  majority; the ablation reports delivery, quiescence and property verdicts
  under both.
* **b) Retirement disabled** — Algorithm 2 with ``retire_enabled=False`` is
  functionally identical but never quiesces (it degenerates to Algorithm 1's
  sending behaviour).
* **c) Strict equality** — the paper's literal ``counter == number`` check vs
  the robust ``>=`` form, under a converging detector (learning delays), to
  show both deliver but the strict form is more brittle to label churn.
* **d) Fairness guard** — high-loss channels with and without the fairness
  guard; without the guard liveness within the horizon becomes probabilistic.
* **e) Eager first broadcast** — latency optimisation on/off.
"""

from __future__ import annotations

from typing import Optional

from ..failure_detectors.policies import DisseminationPolicy
from ..network.loss import LossSpec
from .common import (
    algorithm2_scenario,
    all_correct_delivered,
    crash_last,
    is_quiescent,
    mean_latency,
    mean_of,
    properties_hold,
    seeds_for,
)
from .report import ExperimentArtifact, ExperimentResult
from .runner import replicate

EXPERIMENT_ID = "E10"
TITLE = "Ablations: failure-detector policy, retirement, equality, fairness"

N_PROCESSES = 6


def _row(label: str, scenario, n_seeds: int) -> list:
    results = replicate(scenario, n_seeds)
    return [
        label,
        len(results),
        sum(1 for r in results if all_correct_delivered(r)),
        sum(1 for r in results if is_quiescent(r)),
        sum(1 for r in results if properties_hold(r)),
        mean_of(results, mean_latency),
    ]


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E10 and return its table."""
    n_seeds = seeds_for(quick, seeds)
    rows = []

    # a) dissemination policy under a minority of correct processes.
    minority_base = algorithm2_scenario(
        name="E10-policy",
        n_processes=N_PROCESSES,
        crashes=crash_last(N_PROCESSES, 4, time=1.5),   # only 2 correct
        loss=LossSpec.bernoulli(0.2),
        max_time=200.0,
    )
    rows.append(_row(
        "a) prescient AΘ/AP* (CORRECT_ONLY), minority correct",
        minority_base.with_(fd_policy=DisseminationPolicy.CORRECT_ONLY),
        n_seeds,
    ))
    rows.append(_row(
        "a) detection-based AΘ/AP* (ALL_PROCESSES), minority correct",
        minority_base.with_(fd_policy=DisseminationPolicy.ALL_PROCESSES,
                            fd_detection_delay=3.0),
        n_seeds,
    ))

    # b) retirement disabled (non-quiescent variant).
    base = algorithm2_scenario(
        name="E10-retire",
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(0.2),
        stop_when_quiescent=False,
        max_time=60.0,
    )
    rows.append(_row("b) retirement enabled", base.with_(retire_enabled=True),
                     n_seeds))
    rows.append(_row("b) retirement disabled", base.with_(retire_enabled=False),
                     n_seeds))

    # c) strict equality vs robust comparison under a converging detector.
    converge_base = algorithm2_scenario(
        name="E10-strict",
        n_processes=N_PROCESSES,
        crashes={N_PROCESSES - 1: 2.0},
        loss=LossSpec.bernoulli(0.1),
        fd_policy=DisseminationPolicy.ALL_PROCESSES,
        fd_detection_delay=2.0,
        fd_learn_delay=3.0,
        max_time=200.0,
    )
    rows.append(_row("c) robust comparison (>=)",
                     converge_base.with_(strict_equality=False), n_seeds))
    rows.append(_row("c) strict equality (==)",
                     converge_base.with_(strict_equality=True), n_seeds))

    # d) fairness guard under heavy loss.
    lossy_base = algorithm2_scenario(
        name="E10-fairness",
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(0.7),
        max_time=250.0,
    )
    rows.append(_row("d) fairness guard on (bound 25)",
                     lossy_base.with_(fairness_bound=25), n_seeds))
    rows.append(_row("d) fairness guard off",
                     lossy_base.with_(fairness_bound=None), n_seeds))

    # e) eager first broadcast.
    eager_base = algorithm2_scenario(
        name="E10-eager",
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(0.1),
    )
    rows.append(_row("e) eager first broadcast",
                     eager_base.with_(eager_first_broadcast=True), n_seeds))
    rows.append(_row("e) first broadcast at next tick",
                     eager_base.with_(eager_first_broadcast=False), n_seeds))

    table = ExperimentArtifact(
        name="Table 5 — ablation outcomes",
        kind="table",
        headers=["ablation", "runs", "runs fully delivered", "quiescent runs",
                 "runs w/ URB properties", "mean latency"],
        rows=rows,
        notes=(
            "The prescient oracle is the configuration the paper's Theorem 3 "
            "assumes; the detection-based oracle is only sound with a correct "
            "majority, and without one it may fail to deliver, fail to "
            "quiesce, or (in adversarial schedules) violate agreement."
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[table],
        parameters={"seeds": n_seeds, "n": N_PROCESSES, "quick": quick},
    )
