"""E6 — Impossibility of URB without a correct majority (Table 2).

Theorem 2 of the paper: no algorithm solves URB in the bare model
(``AAS_F[∅]``) when ``t ≥ n/2``.  The proof builds two indistinguishable
runs; run ``R2`` is the damning one:

* the system splits into ``S1`` (⌈n/2⌉ processes) and ``S2`` (⌊n/2⌋),
* every message from ``S1`` to ``S2`` is lost,
* the ``S1`` processes behave as if ``S2`` had crashed, URB-deliver ``m``,
  and then crash,
* no process of ``S2`` ever receives anything → Uniform Agreement is
  violated.

The partition already keeps every ``S1`` message from ``S2``, so *when* the
``S1`` processes crash cannot be seen from ``S2``: the scenario declares
their crashes at the horizon, and every cell is a plain, content-addressed
scenario.

The experiment *constructs* run ``R2`` against a sub-majority variant of
Algorithm 1 (acknowledgement threshold lowered to ``⌈n/2⌉`` — the largest
threshold an algorithm could wait for if it is to make progress with only
``⌈n/2⌉`` correct-looking processes) and verifies the violation occurs.  A
control row keeps the proper majority threshold and shows the algorithm then
*blocks* instead of violating agreement — which is exactly the trade-off the
impossibility captures.
"""

from __future__ import annotations

from typing import Optional

from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import count_of, seeds_for
from .config import Scenario
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E6"
TITLE = "Impossibility of URB with t >= n/2 and no failure detector"

N_PROCESSES = 4
HORIZON = 60.0


def build_partition_scenario(
    *,
    majority_threshold: int,
    seed: int = 0,
    n_processes: int = N_PROCESSES,
) -> Scenario:
    """Build the run-``R2`` scenario of the proof for a given ACK threshold.

    The ``S1`` side (the first ⌈n/2⌉ processes) crashes at the horizon.
    """
    group_s1 = range((n_processes + 1) // 2)                    # ⌈n/2⌉
    group_s2 = range((n_processes + 1) // 2, n_processes)
    return Scenario(
        name=f"E6-threshold{majority_threshold}",
        algorithm="algorithm1",
        n_processes=n_processes,
        seed=seed,
        # The partition loses every message crossing from S1 to S2 (and back,
        # which only strengthens the indistinguishability); the fairness
        # guard must be off — the adversary controls the channel.
        loss=LossSpec.partition(group_s1, group_s2),
        fairness_bound=None,
        majority_threshold=majority_threshold,
        max_time=HORIZON,
        crashes={index: HORIZON for index in group_s1},
    )


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E6 and return its table."""
    n_seeds = seeds_for(quick, seeds)
    sub_majority = (N_PROCESSES + 1) // 2          # n/2 acknowledgements
    proper_majority = N_PROCESSES // 2 + 1         # > n/2 acknowledgements
    configurations = (
        ("sub-majority (t >= n/2 tolerated)", sub_majority),
        ("proper majority (t < n/2 required)", proper_majority),
    )
    suite = ScenarioSuite("E6")
    for label, threshold in configurations:
        suite.add(build_partition_scenario(majority_threshold=threshold),
                  group=label)
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()
    rows = [
        [
            label,
            threshold,
            len(results),
            count_of(results, lambda r: r.metrics.deliveries > 0),
            count_of(results, lambda r: not r.verdict.uniform_agreement.holds),
            count_of(results, lambda r: r.metrics.deliveries == 0),
        ]
        for (label, threshold), results in zip(configurations, groups.values())
    ]
    table = ExperimentArtifact(
        name="Table 2 — partition adversary (run R2 of Theorem 2)",
        kind="table",
        headers=["configuration", "ACK threshold", "runs", "runs w/ delivery",
                 "uniform agreement violations", "runs blocked (no delivery)"],
        rows=rows,
        notes=(
            "With the sub-majority threshold the S1 side delivers and then "
            "crashes while S2 never hears anything: Uniform Agreement is "
            "violated in every run.  With the proper majority threshold the "
            "algorithm cannot gather enough acknowledgements inside S1 and "
            "blocks — safe, but not live — which is why a failure detector "
            "(AΘ) is needed to go below a correct majority."
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[table],
        parameters={"seeds": n_seeds, "n": N_PROCESSES, "quick": quick},
        notes="Constructive demonstration of the paper's Theorem 2.",
    )
