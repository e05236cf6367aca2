"""E9 — Baseline comparison: why Uniform Reliable Broadcast (Table 4).

The paper's introduction motivates URB by the inconsistencies weaker
broadcast abstractions allow when senders crash or channels lose messages.
This experiment runs every protocol in the library on the same adversarial
scenario — a sender that crashes shortly after broadcasting over lossy
channels — and reports how many correct processes end up with the message
and whether (uniform) agreement survives.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.properties import check_correct_agreement
from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import count_of, delivered_fraction, mean_of, seeds_for
from .config import Scenario
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E9"
TITLE = "Baseline comparison under a crashing sender and lossy channels"

N_PROCESSES = 6
LOSS_P = 0.55
#: The sender crashes shortly after its (single) broadcast attempt.
SENDER_CRASH_TIME = 0.6

PROTOCOLS = ("best_effort", "eager_rb", "algorithm1", "identified_urb", "algorithm2")


def _scenario(algorithm: str) -> Scenario:
    return Scenario(
        name=f"E9-{algorithm}",
        algorithm=algorithm,
        n_processes=N_PROCESSES,
        crashes={0: SENDER_CRASH_TIME},
        loss=LossSpec.bernoulli(LOSS_P),
        # One broadcast (the default workload): the adversarial point is that
        # a *single* transmission can be lost; the fairness guard only
        # matters for the retransmitting protocols.
        max_time=120.0,
        stop_when_all_correct_delivered=(algorithm != "algorithm2"),
        stop_when_quiescent=(algorithm == "algorithm2"),
        drain_grace_period=3.0,
    )


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E9 and return its table."""
    n_seeds = seeds_for(quick, seeds)
    suite = ScenarioSuite("E9").add_many(map(_scenario, PROTOCOLS))
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()
    rows = [
        [
            algorithm,
            len(results),
            count_of(results, lambda r: r.metrics.deliveries > 0),
            mean_of(results, delivered_fraction),
            count_of(results, lambda r: r.verdict.uniform_agreement.holds),
            count_of(results,
                     lambda r: check_correct_agreement(r.simulation).holds),
        ]
        for algorithm, results in zip(PROTOCOLS, groups.values())
    ]
    table = ExperimentArtifact(
        name="Table 4 — delivery coverage and agreement per protocol",
        kind="table",
        headers=["protocol", "runs", "runs w/ any delivery",
                 "mean fraction of correct processes fully delivered",
                 "uniform agreement ok", "agreement among correct ok"],
        rows=rows,
        notes=(
            "best_effort transmits once: lost copies are never recovered, so "
            "coverage is partial and agreement is typically violated.  "
            "eager_rb relays once: better coverage, still no tolerance of "
            "loss.  The URB protocols (algorithm1, identified_urb, "
            "algorithm2) must reach full coverage and preserve both "
            "agreement columns in every run."
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[table],
        parameters={"seeds": n_seeds, "n": N_PROCESSES, "loss": LOSS_P,
                    "sender_crash": SENDER_CRASH_TIME, "quick": quick},
        notes="Motivational comparison from the paper's introduction (§I).",
    )
