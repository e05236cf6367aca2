"""Integration tests: full simulated runs of Algorithm 2.

Checks the paper's Theorem 3: Algorithm 2 implements URB with any number of
crashes, and it is quiescent.
"""

import pytest

from repro.analysis.quiescence import analyze_quiescence, retire_times
from repro.experiments.config import Scenario
from repro.experiments.runner import run_scenario
from repro.failure_detectors.policies import DisseminationPolicy
from repro.network.loss import LossSpec
from repro.workloads.generators import AllToAll, SingleBroadcast, UniformStream


def scenario(**overrides) -> Scenario:
    base = dict(
        name="it-a2",
        algorithm="algorithm2",
        n_processes=5,
        loss=LossSpec.bernoulli(0.2),
        max_time=150.0,
        stop_when_quiescent=True,
        drain_grace_period=4.0,
        workload=SingleBroadcast(sender=0, time=0.0),
        seed=11,
    )
    base.update(overrides)
    return Scenario(**base)


class TestCorrectness:
    def test_failure_free_run(self):
        result = run_scenario(scenario(loss=LossSpec.none()))
        assert result.all_properties_hold
        for index in range(5):
            assert result.simulation.deliveries_of(index) == ["m0"]

    def test_lossy_run(self):
        result = run_scenario(scenario(loss=LossSpec.bernoulli(0.5)))
        assert result.all_properties_hold

    def test_minority_crashes(self):
        result = run_scenario(scenario(crashes={3: 2.0, 4: 3.0}))
        assert result.all_properties_hold
        for index in range(3):
            assert "m0" in result.simulation.deliveries_of(index)

    def test_majority_crashes_still_delivers(self):
        # The headline claim: URB with any number of crashes (here 3 of 5).
        result = run_scenario(scenario(crashes={2: 1.0, 3: 1.5, 4: 2.0}))
        assert result.all_properties_hold
        for index in (0, 1):
            assert "m0" in result.simulation.deliveries_of(index)

    def test_single_correct_process(self):
        result = run_scenario(
            scenario(crashes={1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}, max_time=100.0)
        )
        assert result.all_properties_hold
        assert result.simulation.deliveries_of(0) == ["m0"]

    def test_all_to_all_workload(self):
        result = run_scenario(
            scenario(workload=AllToAll(5), crashes={4: 4.0}, max_time=200.0)
        )
        assert result.all_properties_hold
        expected = {f"m{k}" for k in range(5)}
        for index in range(4):
            assert expected <= set(result.simulation.deliveries_of(index))

    def test_stream_workload(self):
        result = run_scenario(
            scenario(workload=UniformStream(4, senders=(0, 1), interval=4.0),
                     max_time=200.0)
        )
        assert result.all_properties_hold

    def test_anonymity_audit_passes(self):
        result = run_scenario(scenario())
        assert result.anonymity.passed


class TestQuiescence:
    def test_failure_free_quiescence(self):
        result = run_scenario(scenario(loss=LossSpec.bernoulli(0.3)))
        report = result.quiescence
        assert report.quiescent
        assert result.simulation.stop_reason == "quiescent"

    def test_quiescence_with_crashes(self):
        result = run_scenario(scenario(crashes={3: 2.0, 4: 5.0}, max_time=200.0))
        assert result.quiescence.quiescent

    def test_every_correct_process_retires_every_message(self):
        result = run_scenario(scenario())
        for index in result.simulation.correct_indices():
            process = result.simulation.processes[index]
            assert process.pending_retransmissions == 0
            assert process.retired_count == 1

    def test_retire_events_traced(self):
        result = run_scenario(scenario())
        retires = retire_times(result.simulation)
        assert len(retires) == len(result.simulation.correct_indices())

    def test_quiescence_time_scales_with_loss(self):
        quiet = run_scenario(scenario(loss=LossSpec.none(), seed=2))
        noisy = run_scenario(scenario(loss=LossSpec.bernoulli(0.6), seed=2,
                                      max_time=300.0))
        assert (noisy.quiescence.last_send_time
                >= quiet.quiescence.last_send_time)

    def test_no_retire_variant_is_not_quiescent(self):
        result = run_scenario(
            scenario(retire_enabled=False, stop_when_quiescent=False,
                     max_time=60.0)
        )
        report = analyze_quiescence(result.simulation)
        assert not report.quiescent


class TestDetectorVariants:
    def test_detection_based_oracle_with_majority(self):
        result = run_scenario(
            scenario(fd_policy=DisseminationPolicy.ALL_PROCESSES,
                     crashes={4: 1.0}, fd_detection_delay=2.0,
                     max_time=200.0)
        )
        assert result.all_properties_hold
        assert result.quiescence.quiescent

    def test_learning_delay_exercises_label_reconciliation(self):
        result = run_scenario(
            scenario(fd_learn_delay=5.0, loss=LossSpec.bernoulli(0.3),
                     max_time=200.0)
        )
        assert result.all_properties_hold

    def test_detection_delay_slows_delivery_with_realistic_oracle(self):
        fast = run_scenario(
            scenario(fd_policy=DisseminationPolicy.ALL_PROCESSES,
                     crashes={4: 0.5}, fd_detection_delay=0.0,
                     apstar_detection_delay=0.0, seed=4, max_time=250.0)
        )
        slow = run_scenario(
            scenario(fd_policy=DisseminationPolicy.ALL_PROCESSES,
                     crashes={4: 0.5}, fd_detection_delay=10.0,
                     apstar_detection_delay=10.0, seed=4, max_time=250.0)
        )
        assert slow.metrics.mean_latency > fast.metrics.mean_latency

    def test_own_only_policy_violates_accuracy_and_agreement(self):
        # The deliberately unsound OWN_ONLY policy lets a process deliver as
        # soon as its own acknowledgement loops back (counter[own label] = 1
        # = number).  Combined with the impossibility-style adversary — the
        # deliverer is isolated and crashes after delivering (at the horizon:
        # the partition hides the crash time from everyone else) — Uniform
        # Agreement breaks, demonstrating why AΘ-accuracy matters.
        from repro.network.loss import LossSpec as _LossSpec

        result = run_scenario(
            scenario(
                fd_policy=DisseminationPolicy.OWN_ONLY,
                loss=_LossSpec.partition({0}, {1, 2, 3, 4}),
                fairness_bound=None,
                crashes={0: 40.0},
                stop_when_quiescent=False,
                max_time=40.0,
            )
        )
        assert result.metrics.deliveries >= 1
        assert result.simulation.deliveries_of(0) == ["m0"]
        assert result.simulation.crash_schedule.crash_times == {0: 40.0}
        assert not result.verdict.uniform_agreement.holds
        # Integrity (at-most-once, only broadcast messages) still holds.
        assert result.verdict.uniform_integrity.holds

    def test_own_only_policy_flag_reports_unsound(self):
        assert not DisseminationPolicy.OWN_ONLY.is_safe_without_majority

    def test_strict_equality_mode_still_correct(self):
        result = run_scenario(scenario(strict_equality=True))
        assert result.all_properties_hold


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_seed_reproduces_run(self, seed):
        a = run_scenario(scenario(seed=seed))
        b = run_scenario(scenario(seed=seed))
        assert a.metrics.total_sends == b.metrics.total_sends
        assert a.metrics.mean_latency == b.metrics.mean_latency
        assert a.quiescence.last_send_time == b.quiescence.last_send_time
