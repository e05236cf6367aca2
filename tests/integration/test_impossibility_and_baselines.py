"""Integration tests for the impossibility construction (Theorem 2) and the
baseline protocols' failure modes."""

import pytest

from repro.experiments.config import Scenario
from repro.experiments.impossibility import HORIZON, build_partition_scenario
from repro.experiments.runner import run_scenario
from repro.network.loss import LossSpec
from repro.workloads.generators import SingleBroadcast


class TestImpossibilityConstruction:
    def test_sub_majority_threshold_violates_uniform_agreement(self):
        # Run R2 of the proof: S1 delivers then crashes; S2 hears nothing.
        scenario = build_partition_scenario(majority_threshold=2)
        result = run_scenario(scenario)
        simulation = result.simulation
        assert result.metrics.deliveries > 0
        deliverers = {index for index in range(scenario.n_processes)
                      if simulation.deliveries_of(index)}
        crashed = simulation.crash_schedule.crash_times
        assert deliverers and deliverers <= set(crashed), \
            "every deliverer must be a crashed process"
        assert not result.verdict.uniform_agreement.holds

    def test_partitioned_side_never_delivers(self):
        scenario = build_partition_scenario(majority_threshold=2)
        result = run_scenario(scenario)
        n = scenario.n_processes
        s2 = range((n + 1) // 2, n)
        for index in s2:
            assert result.simulation.deliveries_of(index) == []

    def test_proper_majority_blocks_instead_of_violating(self):
        scenario = build_partition_scenario(majority_threshold=3)
        result = run_scenario(scenario)
        assert result.metrics.deliveries == 0
        # S1 crashes only at the horizon, long after it could have delivered.
        crashed = result.simulation.crash_schedule.crash_times
        assert crashed == {0: HORIZON, 1: HORIZON}
        assert result.verdict.uniform_agreement.holds

    def test_proper_majority_validity_is_vacuous(self):
        # The blocked sender p0 is on the S1 side, faulty at the horizon:
        # Validity checks no broadcast rather than reporting p0's block.
        scenario = build_partition_scenario(majority_threshold=3)
        result = run_scenario(scenario)
        assert not result.simulation.crash_schedule.is_correct(0)
        assert result.simulation.deliveries_of(0) == []
        assert result.verdict.validity.holds
        assert result.verdict.validity.checked == 0

    def test_construction_is_reproducible(self):
        for seed in range(3):
            scenario = build_partition_scenario(majority_threshold=2, seed=seed)
            result = run_scenario(scenario)
            assert not result.verdict.uniform_agreement.holds

    def test_algorithm2_not_fooled_by_partition_with_prescient_oracle(self):
        # With AΘ's prescient CORRECT_ONLY oracle there is no delivery rule
        # an S1-only quorum can satisfy when some correct process is on the
        # S2 side: the run stays safe (it simply cannot deliver until the
        # partition would heal, which in this adversarial run never happens).
        scenario = Scenario(
            name="partition-a2",
            algorithm="algorithm2",
            n_processes=4,
            loss=LossSpec.partition({0, 1}, {2, 3}),
            fairness_bound=None,
            workload=SingleBroadcast(sender=0, time=0.0),
            max_time=40.0,
        )
        result = run_scenario(scenario)
        assert result.verdict.uniform_agreement.holds
        assert result.metrics.deliveries == 0


class TestBestEffortFailureModes:
    def test_loss_breaks_agreement(self):
        # One-shot transmission over very lossy channels: with several seeds,
        # at least one run must leave some correct process without the
        # message while others delivered it.
        violated = 0
        for seed in range(6):
            scenario = Scenario(
                name="be-loss", algorithm="best_effort", n_processes=6,
                loss=LossSpec.bernoulli(0.5), fairness_bound=None,
                workload=SingleBroadcast(sender=0, time=0.0),
                max_time=30.0, seed=seed,
            )
            result = run_scenario(scenario)
            if not result.verdict.uniform_agreement.holds:
                violated += 1
        assert violated > 0

    def test_reliable_channels_and_correct_sender_suffice(self):
        scenario = Scenario(
            name="be-ok", algorithm="best_effort", n_processes=5,
            channel_type="reliable",
            workload=SingleBroadcast(sender=0, time=0.0), max_time=30.0,
        )
        result = run_scenario(scenario)
        assert result.all_properties_hold


class TestEagerRbFailureModes:
    def test_sender_crash_on_quasi_reliable_channels_breaks_uniformity(self):
        # Deterministic construction of the classic non-uniformity scenario:
        # the sender's loopback copy is fast (it delivers to itself), every
        # other channel is slow, and the sender crashes in between.  With
        # quasi-reliable channels the in-flight copies die with the crashed
        # sender, so no other process ever delivers — the sender's delivery
        # violates Uniform Agreement.
        from repro.network.delay import DelaySpec, FixedDelay

        loopback_fast = DelaySpec.custom(
            lambda src, dst, rng: FixedDelay(0.1 if src == dst else 1.0)
        )
        scenario = Scenario(
            name="rb-crash", algorithm="eager_rb", n_processes=5,
            channel_type="quasi_reliable",
            delay=loopback_fast,
            crashes={0: 0.5},
            workload=SingleBroadcast(sender=0, time=0.0),
            max_time=30.0, seed=0,
        )
        result = run_scenario(scenario)
        assert result.simulation.deliveries_of(0) == ["m0"]
        for index in range(1, 5):
            assert result.simulation.deliveries_of(index) == []
        assert not result.verdict.uniform_agreement.holds

    def test_correct_processes_with_reliable_channels_agree(self):
        scenario = Scenario(
            name="rb-ok", algorithm="eager_rb", n_processes=5,
            channel_type="reliable",
            workload=SingleBroadcast(sender=0, time=0.0), max_time=30.0,
        )
        result = run_scenario(scenario)
        assert result.all_properties_hold


class TestUrbProtocolsUnderTheSameAdversity:
    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2"])
    def test_urb_protocols_survive_sender_crash_and_loss(self, algorithm):
        scenario = Scenario(
            name="urb-adverse", algorithm=algorithm, n_processes=6,
            loss=LossSpec.bernoulli(0.4),
            crashes={0: 0.6},
            workload=SingleBroadcast(sender=0, time=0.0),
            max_time=200.0,
            stop_when_all_correct_delivered=(algorithm == "algorithm1"),
            stop_when_quiescent=(algorithm == "algorithm2"),
            drain_grace_period=3.0,
            seed=2,
        )
        result = run_scenario(scenario)
        assert result.verdict.uniform_agreement.holds
        assert result.verdict.uniform_integrity.holds
