"""Unit tests for the pluggable component registries (repro.registry)."""

import pytest

from repro.core.baselines import BestEffortBroadcastProcess
from repro.experiments.config import Scenario
from repro.registry import (
    AlgorithmSpec,
    DuplicateComponentError,
    UnknownComponentError,
    algorithms,
    channels,
    detector_setups,
    register_algorithm,
    workloads,
)
from repro.workloads.generators import SingleBroadcast


class TestBuiltinRegistrations:
    def test_builtin_algorithms_present(self):
        names = algorithms.names()
        for expected in ("algorithm1", "algorithm2", "best_effort",
                         "eager_rb", "identified_urb"):
            assert expected in names

    def test_builtin_channels_present(self):
        assert set(channels.names()) >= {"fair_lossy", "reliable",
                                         "quasi_reliable"}

    def test_builtin_detector_setups_present(self):
        assert set(detector_setups.names()) >= {"oracle", "prescient", "none"}

    def test_builtin_workloads_present(self):
        assert set(workloads.names()) >= {"single", "all_to_all",
                                          "uniform_stream", "two_senders",
                                          "burst", "poisson"}

    def test_algorithm_metadata_flags(self):
        assert algorithms.get("algorithm1").requires_majority
        assert not algorithms.get("algorithm1").supports_quiescence
        algorithm2 = algorithms.get("algorithm2")
        assert algorithm2.supports_quiescence
        assert algorithm2.uses_failure_detectors
        assert algorithm2.anonymous
        assert not algorithms.get("identified_urb").anonymous

    def test_registries_support_len_iter_contains(self):
        assert "algorithm2" in algorithms
        assert len(channels) >= 3
        assert list(iter(detector_setups)) == list(detector_setups.names())


class TestErrorMessages:
    def test_unknown_algorithm_lists_known_names(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            algorithms.get("paxos")
        message = str(excinfo.value)
        assert "paxos" in message
        assert "algorithm2" in message
        assert "register_" in message

    def test_unknown_lookup_is_a_value_error(self):
        with pytest.raises(ValueError):
            channels.get("carrier_pigeon")
        with pytest.raises(ValueError):
            detector_setups.get("psychic")
        with pytest.raises(ValueError):
            workloads.get("firehose")

    def test_duplicate_registration_rejected(self):
        spec = algorithms.get("algorithm1")
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
            assert "tmp_decorated" in algorithms.names()
        finally:
            algorithms.unregister("tmp_decorated")

    def test_decorator_sets_spec_fields_and_collects_extras(self):
        def factory(scenario, index, env):
            return BestEffortBroadcastProcess(env)

        register_algorithm("tmp_fields", requires_majority=True,
                           anonymous=False, broken=True)(factory)
        try:
            spec = algorithms.get("tmp_fields")
            assert type(spec) is AlgorithmSpec
            assert spec.factory is factory
            assert spec.requires_majority and not spec.anonymous
            assert dict(spec.extra) == {"broken": True}
        finally:
            algorithms.unregister("tmp_fields")

    def test_decorator_refuses_a_duplicate_unless_replacing(self):
        original = algorithms.get("best_effort")
        with pytest.raises(DuplicateComponentError):
            register_algorithm("best_effort")(original.factory)
        assert algorithms.get("best_effort") is original

    def test_every_registry_registers_through_its_decorator(self):
        from repro.registry import all_registries

        for registry in all_registries().values():
            def factory(*args, **kwargs):
                """A documented factory."""

            registry.decorator("tmp_every")(factory)
            try:
                spec = registry.get("tmp_every")
                assert type(spec) is registry.spec_type
                assert spec.description == "A documented factory."
            finally:
                registry.unregister("tmp_every")

    def test_scoped_registration_restores_previous_state(self):
        spec = AlgorithmSpec(
            name="tmp_scoped",
            factory=lambda scenario, index, env: BestEffortBroadcastProcess(env),
        )
        with algorithms.scoped(spec):
            assert "tmp_scoped" in algorithms
        assert "tmp_scoped" not in algorithms

    def test_scoped_replace_restores_original(self):
        original = algorithms.get("best_effort")
        override = AlgorithmSpec(name="best_effort", factory=original.factory,
                                 description="override")
        with algorithms.scoped(override, replace=True):
            assert algorithms.get("best_effort").description == "override"
        assert algorithms.get("best_effort") is original


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
            assert (workloads.get("tmp_documented").description
                    == "A documented preset.")
        finally:
            workloads.unregister("tmp_documented")
