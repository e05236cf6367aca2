"""E4 — Quiescence time of Algorithm 2 (Figure 3).

Measures when Algorithm 2 actually falls silent (time of the last channel
send) as a function of (a) the channel loss probability and (b) the AP\\*
detection delay when a crash occurs.  Higher loss means more retransmission
rounds before every correct process has acknowledged; a larger detection
delay postpones the removal of the crashed process's pair from AP\\*, which
postpones retirement of messages and therefore quiescence.
"""

from __future__ import annotations

from typing import Optional

from ..failure_detectors.policies import DisseminationPolicy
from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import algorithm2_scenario, fraction_of, mean_of, seeds_for
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E4"
TITLE = "Quiescence time vs. loss probability and detection delay"

N_PROCESSES = 6


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E4 and return its two figures."""
    n_seeds = seeds_for(quick, seeds)
    losses = (0.0, 0.3) if quick else (0.0, 0.2, 0.4, 0.6)
    delays = (0.0, 5.0) if quick else (0.0, 2.0, 5.0, 10.0)

    suite = ScenarioSuite("E4")
    # (a) quiescence time vs loss probability, failure-free.
    suite.add_sweep(
        algorithm2_scenario(n_processes=N_PROCESSES, name="E4-loss",
                            drain_grace_period=5.0),
        "loss",
        losses,
        groups=[f"loss p={p}" for p in losses],
        scenario_builder=lambda scenario, p: scenario.with_(
            loss=LossSpec.bernoulli(p) if p else LossSpec.none()
        ),
    )
    # (b) quiescence time vs AP* detection delay, one crash, realistic
    # (detection-based) oracle so the delay actually matters.
    suite.add_sweep(
        algorithm2_scenario(
            n_processes=N_PROCESSES,
            name="E4-delay",
            crashes={N_PROCESSES - 1: 1.0},
            loss=LossSpec.bernoulli(0.2),
            fd_policy=DisseminationPolicy.ALL_PROCESSES,
            drain_grace_period=5.0,
        ),
        "fd_detection_delay",
        delays,
        groups=[f"delay d={d}" for d in delays],
        scenario_builder=lambda scenario, d: scenario.with_(
            fd_detection_delay=d, apstar_detection_delay=d
        ),
    )
    groups = suite.with_seeds(n_seeds).run(fail_fast=True).groups()

    def row(value, results):
        return [value,
                mean_of(results, lambda r: r.quiescence.last_send_time),
                fraction_of(results, lambda r: r.quiescence.quiescent)]

    loss_rows = [row(p, groups[f"loss p={p}"]) for p in losses]
    delay_rows = [row(d, groups[f"delay d={d}"]) for d in delays]

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[
            ExperimentArtifact(
                name="Figure 3a — quiescence time vs loss probability",
                kind="figure",
                headers=["loss p", "mean last send time", "quiescent fraction"],
                rows=loss_rows,
            ),
            ExperimentArtifact(
                name="Figure 3b — quiescence time vs detection delay (1 crash)",
                kind="figure",
                headers=["detection delay", "mean last send time",
                         "quiescent fraction"],
                rows=delay_rows,
                notes=(
                    "Uses the detection-based (ALL_PROCESSES) oracle with a "
                    "correct majority so the detection delay is the quantity "
                    "that gates retirement."
                ),
            ),
        ],
        parameters={"seeds": n_seeds, "n": N_PROCESSES, "quick": quick},
        notes=(
            "Quiescence time grows with both the loss rate and the failure "
            "detector's detection delay; every run must still end quiescent."
        ),
    )
