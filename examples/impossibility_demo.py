#!/usr/bin/env python3
"""Impossibility demo: constructing run R2 of the paper's Theorem 2.

Theorem 2 states that URB cannot be solved in the bare anonymous model with
fair lossy channels when half or more of the processes may crash.  The proof
builds an adversarial run: one half of the system (S1) delivers a message and
crashes, while the channel loses everything that was ever sent towards the
other half (S2) — so S2 can never deliver, violating Uniform Agreement.
Since S2 hears nothing from S1, it cannot tell when S1 crashed: the scenario
declares S1's crashes at the horizon.

This example *executes* that run against a sub-majority variant of
Algorithm 1 and then shows that (a) the proper majority threshold escapes the
violation by blocking, and (b) Algorithm 2 with the prescient AΘ/AP* oracle
stays safe too.

Run with::

    python examples/impossibility_demo.py
"""

from repro import Scenario, run_scenario
from repro.analysis.tables import render_table
from repro.experiments.impossibility import build_partition_scenario
from repro.network import LossSpec
from repro.workloads import SingleBroadcast


def describe(result, label):
    agreement = result.verdict.uniform_agreement
    deliverers = sorted(
        index for index, log in result.simulation.delivery_logs.items() if len(log)
    )
    return [
        label,
        deliverers if deliverers else "-",
        "VIOLATED" if not agreement.holds else "holds",
        result.metrics.deliveries,
    ]


def main() -> None:
    rows = []

    # (a) Sub-majority ACK threshold (an algorithm that *pretends* to work
    #     with t >= n/2): the S1 side delivers and crashes, S2 never hears
    #     anything -> Uniform Agreement is violated.
    scenario = build_partition_scenario(majority_threshold=2)
    result = run_scenario(scenario)
    rows.append(describe(result, "Algorithm 1, threshold n/2 (run R2)"))
    print("S1 processes crashed at the horizon:",
          [f"p{index}@t={time:g}" for index, time
           in sorted(result.simulation.crash_schedule.crash_times.items())])

    # (b) Proper majority threshold: the same adversary leaves the algorithm
    #     unable to gather enough acknowledgements inside S1 -> it blocks,
    #     which is safe (and is exactly why a majority is needed).
    scenario = build_partition_scenario(majority_threshold=3)
    rows.append(describe(run_scenario(scenario), "Algorithm 1, majority threshold"))

    # (c) Algorithm 2 under the same partition: the prescient AΘ oracle makes
    #     delivery wait for acknowledgements from every correct process, which
    #     the partition prevents -> no delivery, no violation.
    scenario_a2 = Scenario(
        name="impossibility-a2",
        algorithm="algorithm2",
        n_processes=4,
        loss=LossSpec.partition({0, 1}, {2, 3}),
        fairness_bound=None,
        workload=SingleBroadcast(sender=0, time=0.0),
        max_time=40.0,
    )
    rows.append(describe(run_scenario(scenario_a2), "Algorithm 2 with AΘ/AP*"))

    print()
    print(render_table(
        ["configuration", "processes that delivered", "uniform agreement",
         "total deliveries"],
        rows,
        title="Theorem 2: the S1/S2 partition adversary (n=4, S1={0,1}, S2={2,3})",
    ))
    print(
        "\nReading: only the sub-majority configuration both delivers and "
        "violates Uniform Agreement — exactly the contradiction the proof "
        "derives.  Waiting for a proper majority (or using the failure "
        "detectors) trades that violation for blocking, which is why AΘ is "
        "needed to make progress without a correct majority."
    )


if __name__ == "__main__":
    main()
