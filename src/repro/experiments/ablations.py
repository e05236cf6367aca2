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
from .batch import ScenarioSuite
from .common import (
    algorithm2_scenario,
    all_correct_delivered,
    count_of,
    crash_last,
    mean_of,
    seeds_for,
)
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E10"
TITLE = "Ablations: failure-detector policy, retirement, equality, fairness"

N_PROCESSES = 6


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E10 and return its table."""
    n_seeds = seeds_for(quick, seeds)
    suite = ScenarioSuite("E10")

    # a) dissemination policy under a minority of correct processes.
    minority_base = algorithm2_scenario(
        name="E10-policy",
        n_processes=N_PROCESSES,
        crashes=crash_last(N_PROCESSES, 4, time=1.5),   # only 2 correct
        loss=LossSpec.bernoulli(0.2),
        max_time=200.0,
    )
    suite.add(
        minority_base.with_(fd_policy=DisseminationPolicy.CORRECT_ONLY),
        group="a) prescient AΘ/AP* (CORRECT_ONLY), minority correct",
    )
    suite.add(
        minority_base.with_(fd_policy=DisseminationPolicy.ALL_PROCESSES,
                            fd_detection_delay=3.0),
        group="a) detection-based AΘ/AP* (ALL_PROCESSES), minority correct",
    )

    # b) retirement disabled (non-quiescent variant).
    base = algorithm2_scenario(
        name="E10-retire",
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(0.2),
        stop_when_quiescent=False,
        max_time=60.0,
    )
    suite.add(base.with_(retire_enabled=True), group="b) retirement enabled")
    suite.add(base.with_(retire_enabled=False), group="b) retirement disabled")

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
    suite.add(converge_base.with_(strict_equality=False),
              group="c) robust comparison (>=)")
    suite.add(converge_base.with_(strict_equality=True),
              group="c) strict equality (==)")

    # d) fairness guard under heavy loss.
    lossy_base = algorithm2_scenario(
        name="E10-fairness",
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(0.7),
        max_time=250.0,
    )
    suite.add(lossy_base.with_(fairness_bound=25),
              group="d) fairness guard on (bound 25)")
    suite.add(lossy_base.with_(fairness_bound=None),
              group="d) fairness guard off")

    # e) eager first broadcast.
    eager_base = algorithm2_scenario(
        name="E10-eager",
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(0.1),
    )
    suite.add(eager_base.with_(eager_first_broadcast=True),
              group="e) eager first broadcast")
    suite.add(eager_base.with_(eager_first_broadcast=False),
              group="e) first broadcast at next tick")

    # One row per group: the group label is the row's text.
    rows = [
        [
            label,
            len(results),
            count_of(results, all_correct_delivered),
            count_of(results, lambda r: r.quiescence.quiescent),
            count_of(results, lambda r: r.all_properties_hold),
            mean_of(results, lambda r: r.metrics.mean_latency),
        ]
        for label, results in
        suite.with_seeds(n_seeds).run(fail_fast=True).groups().items()
    ]

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
