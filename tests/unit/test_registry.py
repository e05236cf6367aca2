"""Unit tests for the pluggable component registries (repro.registry)."""

import pytest

from repro.core.baselines import BestEffortBroadcastProcess
from repro.experiments.config import Scenario
from repro.registry import (
    AlgorithmSpec,
    DuplicateComponentError,
    UnknownComponentError,
    algorithm_names,
    algorithms,
    channel_names,
    channels,
    detector_setup_names,
    detector_setups,
    get_algorithm,
    get_channel,
    get_detector_setup,
    get_workload,
    register_algorithm,
    workload_names,
    workloads,
)
from repro.workloads.generators import SingleBroadcast


class TestBuiltinRegistrations:
    def test_builtin_algorithms_present(self):
        names = algorithm_names()
        for expected in ("algorithm1", "algorithm2", "best_effort",
                         "eager_rb", "identified_urb"):
            assert expected in names

    def test_builtin_channels_present(self):
        assert set(channel_names()) >= {"fair_lossy", "reliable",
                                        "quasi_reliable"}

    def test_builtin_detector_setups_present(self):
        assert set(detector_setup_names()) >= {"oracle", "prescient", "none"}

    def test_builtin_workloads_present(self):
        assert set(workload_names()) >= {"single", "all_to_all",
                                         "uniform_stream", "two_senders",
                                         "burst", "poisson"}

    def test_algorithm_metadata_flags(self):
        assert get_algorithm("algorithm1").requires_majority
        assert not get_algorithm("algorithm1").supports_quiescence
        algorithm2 = get_algorithm("algorithm2")
        assert algorithm2.supports_quiescence
        assert algorithm2.uses_failure_detectors
        assert algorithm2.anonymous
        assert not get_algorithm("identified_urb").anonymous

    def test_registries_support_len_iter_contains(self):
        assert "algorithm2" in algorithms
        assert len(channels) >= 3
        assert list(iter(detector_setups)) == list(detector_setup_names())


class TestErrorMessages:
    def test_unknown_algorithm_lists_known_names(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            get_algorithm("paxos")
        message = str(excinfo.value)
        assert "paxos" in message
        assert "algorithm2" in message
        assert "register_" in message

    def test_unknown_lookup_is_a_value_error(self):
        with pytest.raises(ValueError):
            get_channel("carrier_pigeon")
        with pytest.raises(ValueError):
            get_detector_setup("psychic")
        with pytest.raises(ValueError):
            get_workload("firehose")

    def test_duplicate_registration_rejected(self):
        spec = get_algorithm("algorithm1")
        with pytest.raises(DuplicateComponentError) as excinfo:
            algorithms.register(spec)
        assert "already registered" in str(excinfo.value)
        assert "replace=True" in str(excinfo.value)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(UnknownComponentError):
            algorithms.unregister("never_registered")


class TestRegistrationLifecycle:
    def test_decorator_returns_factory_unchanged(self):
        def factory(scenario, index, env):
            return BestEffortBroadcastProcess(env)

        decorated = register_algorithm("tmp_decorated")(factory)
        try:
            assert decorated is factory
            assert "tmp_decorated" in algorithm_names()
        finally:
            algorithms.unregister("tmp_decorated")

    def test_scoped_registration_restores_previous_state(self):
        spec = AlgorithmSpec(
            name="tmp_scoped",
            factory=lambda scenario, index, env: BestEffortBroadcastProcess(env),
        )
        with algorithms.scoped(spec):
            assert "tmp_scoped" in algorithms
        assert "tmp_scoped" not in algorithms

    def test_scoped_replace_restores_original(self):
        original = get_algorithm("best_effort")
        override = AlgorithmSpec(name="best_effort", factory=original.factory,
                                 description="override")
        with algorithms.scoped(override, replace=True):
            assert get_algorithm("best_effort").description == "override"
        assert get_algorithm("best_effort") is original


class TestScenarioValidation:
    def test_scenario_accepts_scoped_registration(self):
        spec = AlgorithmSpec(
            name="tmp_scenario_algo",
            factory=lambda scenario, index, env: BestEffortBroadcastProcess(env),
        )
        with algorithms.scoped(spec):
            scenario = Scenario(algorithm="tmp_scenario_algo", n_processes=3)
            assert scenario.algorithm == "tmp_scenario_algo"
        with pytest.raises(ValueError):
            Scenario(algorithm="tmp_scenario_algo", n_processes=3)

    def test_scenario_validates_detector_setup(self):
        assert Scenario(detector_setup="prescient").detector_setup == "prescient"
        with pytest.raises(ValueError):
            Scenario(detector_setup="psychic")

    def test_scenario_validates_workload_names(self):
        assert Scenario(workload="all_to_all").workload == "all_to_all"
        with pytest.raises(ValueError):
            Scenario(workload="firehose")

    def test_workload_instances_still_accepted(self):
        workload = SingleBroadcast()
        assert Scenario(workload=workload).workload is workload


class TestWorkloadPresets:
    def test_preset_metadata_knobs(self):
        from repro.experiments.runner import build_workload
        from repro.simulation.rng import RandomSource

        scenario = Scenario(workload="burst", n_processes=4,
                            metadata={"burst_size": 7})
        workload = build_workload(scenario, RandomSource(scenario.seed))
        assert len(list(workload)) == 7

    def test_poisson_preset_is_seed_deterministic(self):
        from repro.experiments.runner import build_workload
        from repro.simulation.rng import RandomSource

        scenario = Scenario(workload="poisson", n_processes=5, seed=42)
        first = build_workload(scenario, RandomSource(scenario.seed))
        second = build_workload(scenario, RandomSource(scenario.seed))
        assert [c.time for c in first] == [c.time for c in second]

    def test_decorator_description_defaults_to_docstring(self):
        from repro.registry import register_workload

        def factory(scenario, rng):
            """A documented preset."""
            return SingleBroadcast()

        register_workload("tmp_documented")(factory)
        try:
            assert (get_workload("tmp_documented").description
                    == "A documented preset.")
        finally:
            workloads.unregister("tmp_documented")
