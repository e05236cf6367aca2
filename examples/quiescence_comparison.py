#!/usr/bin/env python3
"""Quiescence comparison: why Algorithm 2 exists.

The paper's central practical motivation (§V-B, §VI): Algorithm 1 forces
every correct process to re-broadcast every delivered message *forever*,
while Algorithm 2 uses the AP* failure detector to stop once every correct
process has acknowledged.  This example runs both on the same workload and
horizon and prints the cumulative send curve side by side — the text version
of the paper-style "figure 2".

Run with::

    python examples/quiescence_comparison.py
"""

from repro import Scenario, run_scenario
from repro.analysis.quiescence import (
    analyze_quiescence,
    cumulative_send_curve,
    send_histogram,
)
from repro.analysis.tables import render_ascii_curve, render_table
from repro.network import LossSpec
from repro.workloads import UniformStream

HORIZON = 60.0
N_PROCESSES = 6


def run(algorithm: str):
    scenario = Scenario(
        name=f"quiescence-{algorithm}",
        algorithm=algorithm,
        n_processes=N_PROCESSES,
        loss=LossSpec.bernoulli(0.2),
        # Three messages from two different senders.
        workload=UniformStream(3, senders=(0, 2), interval=4.0),
        max_time=HORIZON,
        seed=7,
        # No early stopping: we want to observe the tail of the run.
    )
    return run_scenario(scenario)


def main() -> None:
    results = {algorithm: run(algorithm) for algorithm in ("algorithm1", "algorithm2")}

    print("Cumulative channel sends over time "
          f"(n={N_PROCESSES}, 3 broadcasts, loss p=0.2, horizon {HORIZON:g}):\n")
    rows = []
    curves = {
        name: dict(cumulative_send_curve(result.simulation, n_points=13))
        for name, result in results.items()
    }
    for time in sorted(curves["algorithm1"]):
        rows.append([time, curves["algorithm1"][time], curves["algorithm2"][time]])
    print(render_table(["time", "algorithm1 sends", "algorithm2 sends"], rows))

    for name, result in results.items():
        report = analyze_quiescence(result.simulation)
        print(f"\n{name}: {report.describe()}")
        print(render_ascii_curve(
            send_histogram(result.simulation, 5.0), width=50,
            label=f"{name} sends per 5-time-unit window:",
        ))

    a1 = results["algorithm1"].metrics.total_sends
    a2 = results["algorithm2"].metrics.total_sends
    print(f"\nAlgorithm 1 sent {a1} messages over the horizon; "
          f"Algorithm 2 sent {a2} ({a1 / max(a2, 1):.1f}x fewer) and then fell silent.")


if __name__ == "__main__":
    main()
