"""E7 — Impact of the failure detectors' detection delay (Figure 5).

The anonymous detectors are oracles, but realistic implementations converge
only some time after crashes occur.  Using the detection-based
(``ALL_PROCESSES``) oracle in a majority-correct setting, this experiment
sweeps the detection delay and measures its effect on delivery latency and on
quiescence time.  Safety must be unaffected (the properties hold for every
delay); only liveness speed degrades.
"""

from __future__ import annotations

from typing import Optional

from ..failure_detectors.policies import DisseminationPolicy
from ..network.loss import LossSpec
from .batch import ScenarioSuite
from .common import algorithm2_scenario, fraction_of, mean_of, seeds_for
from .report import ExperimentArtifact, ExperimentResult

EXPERIMENT_ID = "E7"
TITLE = "Failure-detector detection delay vs. latency and quiescence"

N_PROCESSES = 6
#: Two early crashes so that delivery genuinely has to wait for detection.
CRASH_TIMES = {4: 0.5, 5: 1.0}


def run(seeds: Optional[int] = None, quick: bool = False) -> ExperimentResult:
    """Run E7 and return its figure."""
    n_seeds = seeds_for(quick, seeds)
    delays = (0.0, 5.0) if quick else (0.0, 1.0, 2.0, 5.0, 10.0, 20.0)
    base = algorithm2_scenario(
        name="E7",
        n_processes=N_PROCESSES,
        crashes=dict(CRASH_TIMES),
        loss=LossSpec.bernoulli(0.1),
        fd_policy=DisseminationPolicy.ALL_PROCESSES,
        drain_grace_period=5.0,
        max_time=200.0,
    )
    swept = ScenarioSuite(base.name).add_sweep(
        base,
        "fd_detection_delay",
        delays,
        scenario_builder=lambda scenario, d: scenario.with_(
            fd_detection_delay=d, apstar_detection_delay=d
        ),
    ).with_seeds(n_seeds).run(fail_fast=True)
    rows = [
        [
            d,
            mean_of(results, lambda r: r.metrics.mean_latency),
            mean_of(results, lambda r: r.quiescence.last_send_time),
            fraction_of(results, lambda r: r.quiescence.quiescent),
            fraction_of(results, lambda r: r.all_properties_hold),
        ]
        for d, results in zip(delays, swept.groups().values())
    ]
    figure = ExperimentArtifact(
        name="Figure 5 — detection delay vs latency / quiescence time",
        kind="figure",
        headers=["detection delay", "mean delivery latency",
                 "mean last send time", "quiescent fraction",
                 "URB properties hold fraction"],
        rows=rows,
        notes=(
            "With the detection-based oracle the delivery condition cannot be "
            "met before undetected crashes are accounted for, so latency and "
            "quiescence time track the detection delay roughly linearly; the "
            "property-hold fraction must stay at 1.0 (safety is unaffected)."
        ),
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        artifacts=[figure],
        parameters={
            "seeds": n_seeds, "n": N_PROCESSES,
            "crashes": dict(CRASH_TIMES), "quick": quick,
        },
    )
