"""Unit tests for result export (JSON/CSV) and the scenario runner builders."""

import csv
import json

import pytest

from repro.analysis.anonymity import audit_anonymity
from repro.analysis.properties import check_urb_properties
from repro.analysis.quiescence import analyze_quiescence
from repro.core.algorithm1 import MajorityUrbProcess
from repro.core.algorithm2 import QuiescentUrbProcess
from repro.core.baselines import (
    BestEffortBroadcastProcess,
    EagerReliableBroadcastProcess,
    IdentifiedMajorityUrbProcess,
)
from repro.experiments.config import Scenario
from repro.experiments.export import (
    artifact_to_dict,
    experiment_result_to_dict,
    provenance_from_dict,
    provenance_to_dict,
    scenario_result_to_dict,
    write_artifact_csv,
    write_experiment_json,
)
from repro.experiments.report import ExperimentArtifact, ExperimentResult
from repro.experiments.runner import (
    build_crash_schedule,
    build_detectors,
    build_engine,
    build_network,
    build_process_factory,
    default_scenario,
    run_scenario,
)
from repro.network.loss import LossSpec
from repro.network.reliable import QuasiReliableChannel, ReliableChannel
from repro.registry import algorithms, engines
from repro.simulation.rng import RandomSource
from repro.workloads.generators import SingleBroadcast


@pytest.fixture(scope="module")
def sample_experiment() -> ExperimentResult:
    artifact = ExperimentArtifact(
        name="Table T", kind="table", headers=["x", "y"],
        rows=[[1, 2.5], ["a", True]], notes="n",
    )
    return ExperimentResult(
        experiment_id="E42", title="Sample", artifacts=[artifact, artifact],
        parameters={"seeds": 2},
    )


@pytest.fixture(scope="module")
def sample_scenario_result():
    scenario = Scenario(
        algorithm="algorithm2", n_processes=4, loss=LossSpec.bernoulli(0.2),
        crashes={3: 2.0}, max_time=100.0, stop_when_quiescent=True,
        drain_grace_period=2.0, workload=SingleBroadcast(), seed=5,
    )
    return run_scenario(scenario)


class TestExperimentExport:
    def test_artifact_round_trip_dict(self, sample_experiment):
        data = artifact_to_dict(sample_experiment.artifacts[0])
        assert data["headers"] == ["x", "y"]
        assert data["rows"][0] == [1, 2.5]

    def test_experiment_to_dict(self, sample_experiment):
        data = experiment_result_to_dict(sample_experiment)
        assert data["experiment_id"] == "E42"
        assert len(data["artifacts"]) == 2
        assert data["parameters"]["seeds"] == 2

    def test_write_and_load_json(self, sample_experiment, tmp_path):
        path = write_experiment_json(sample_experiment, tmp_path / "e42.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["title"] == "Sample"
        assert loaded["artifacts"][0]["rows"][1] == ["a", True]

    def test_write_json_stringifies_what_json_cannot_hold(self, tmp_path):
        result = ExperimentResult(
            experiment_id="E43", title="Odd", artifacts=[],
            parameters={"policy": LossSpec.none(), "crashes": {4: 0.5}},
        )
        loaded = json.loads(write_experiment_json(
            result, tmp_path / "e43.json").read_text(encoding="utf-8"))
        assert loaded["parameters"]["crashes"] == {"4": 0.5}
        assert isinstance(loaded["parameters"]["policy"], str)

    def test_write_artifact_csv(self, sample_experiment, tmp_path):
        path = write_artifact_csv(sample_experiment.artifacts[0],
                                  tmp_path / "t.csv")
        with path.open(newline="", encoding="utf-8") as handle:
            headers, *rows = csv.reader(handle)
        assert headers == ["x", "y"]
        assert rows[0] == ["1", "2.5"]


class TestScenarioExport:
    def test_scenario_result_to_dict_structure(self, sample_scenario_result):
        data = scenario_result_to_dict(sample_scenario_result)
        assert "scenario" not in data  # the stored payload carries it, once
        assert data["verdict"]["uniform_agreement"] is True
        assert data["quiescence"]["quiescent"] is True
        assert data["anonymity_passed"] is True
        assert "m0" in data["deliveries"]["0"]

    def test_scenario_result_json_serialisable(self, sample_scenario_result):
        loaded = json.loads(json.dumps(
            scenario_result_to_dict(sample_scenario_result)))
        assert loaded["metrics"]["deliveries"] >= 3
        assert loaded["stop_reason"] == "quiescent"


class TestScenarioExportRoundTrip:
    """Exported results must reload equal-to-source, including the
    ``ScheduleProvenance`` fields every run carries since the schedule
    exploration work."""

    def test_provenance_round_trips_exactly(self, sample_scenario_result):
        provenance = sample_scenario_result.simulation.schedule
        assert provenance is not None
        rebuilt = provenance_from_dict(provenance_to_dict(provenance))
        assert rebuilt == provenance

    def test_none_provenance_passes_through(self):
        assert provenance_to_dict(None) is None
        assert provenance_from_dict(None) is None

    def test_written_file_reloads_equal_to_source(self, sample_scenario_result):
        loaded = json.loads(json.dumps(
            scenario_result_to_dict(sample_scenario_result)))
        source = sample_scenario_result
        assert (provenance_from_dict(loaded["schedule"])
                == source.simulation.schedule)
        # JSON object keys are strings; normalise the int-keyed counters.
        assert loaded["metrics"] == {
            key: ({str(k): v for k, v in value.items()}
                  if isinstance(value, dict) else value)
            for key, value in source.metrics.as_dict().items()
        }
        assert loaded["final_time"] == source.simulation.final_time
        assert loaded["verdict"]["validity"] == source.verdict.validity.holds
        assert loaded["quiescence"]["last_send_time"] == (
            source.quiescence.last_send_time
        )
        assert loaded["deliveries"] == {
            str(index): log.contents()
            for index, log in source.simulation.delivery_logs.items()
        }

    def test_controlled_run_provenance_round_trips_decisions(self):
        # A strategy-driven run records a non-empty decision trace; the
        # export must preserve it tuple-for-tuple.
        scenario = Scenario(
            algorithm="algorithm1", n_processes=4, seed=3, max_time=60.0,
            stop_when_all_correct_delivered=True, drain_grace_period=2.0,
            explore_strategy="random_walk", explore_index=2,
        )
        result = run_scenario(scenario)
        provenance = result.simulation.schedule
        assert provenance is not None
        assert provenance.decisions  # controlled runs record decisions
        rebuilt = provenance_from_dict(
            json.loads(json.dumps(provenance_to_dict(provenance))))
        assert rebuilt == provenance
        assert rebuilt.decisions == provenance.decisions
        assert rebuilt.schedule_hash == provenance.schedule_hash


class TestRunnerBuilders:
    def test_build_crash_schedule(self):
        scenario = Scenario(n_processes=4, crashes={2: 5.0})
        schedule = build_crash_schedule(scenario)
        assert schedule.crash_time(2) == 5.0
        assert schedule.n_processes == 4

    def test_build_network_fair_lossy_default(self):
        scenario = Scenario(n_processes=3)
        network = build_network(scenario, RandomSource(0),
                                build_crash_schedule(scenario))
        channel = network.channel(0, 1)
        assert channel.fairness_bound is not None

    def test_build_network_reliable(self):
        scenario = Scenario(n_processes=3, channel_type="reliable")
        network = build_network(scenario, RandomSource(0),
                                build_crash_schedule(scenario))
        assert isinstance(network.channel(0, 1), ReliableChannel)

    def test_build_network_quasi_reliable(self):
        scenario = Scenario(n_processes=3, channel_type="quasi_reliable",
                            crashes={2: 1.0})
        network = build_network(scenario, RandomSource(0),
                                build_crash_schedule(scenario))
        assert isinstance(network.channel(0, 1), QuasiReliableChannel)

    def test_detectors_only_built_for_algorithm2(self):
        schedule = build_crash_schedule(Scenario(n_processes=3))
        atheta, apstar = build_detectors(Scenario(algorithm="algorithm1"),
                                         schedule, RandomSource(0))
        assert atheta is None and apstar is None
        atheta, apstar = build_detectors(Scenario(algorithm="algorithm2",
                                                  n_processes=3),
                                         schedule, RandomSource(0))
        assert atheta is not None and apstar is not None

    @pytest.mark.parametrize("algorithm,expected", [
        ("algorithm1", MajorityUrbProcess),
        ("algorithm2", QuiescentUrbProcess),
        ("best_effort", BestEffortBroadcastProcess),
        ("eager_rb", EagerReliableBroadcastProcess),
        ("identified_urb", IdentifiedMajorityUrbProcess),
    ])
    def test_process_factory_types(self, algorithm, expected):
        scenario = Scenario(algorithm=algorithm, n_processes=4)
        engine = build_engine(scenario)
        assert all(isinstance(p, expected) for p in engine.processes.values())

    def test_identified_processes_get_distinct_identities(self):
        scenario = Scenario(algorithm="identified_urb", n_processes=4)
        factory = build_process_factory(scenario)
        engine = build_engine(scenario)
        identities = {p.identity for p in engine.processes.values()}
        assert identities == {0, 1, 2, 3}
        assert factory is not None

    def test_engine_respects_scenario_dimensions(self):
        scenario = Scenario(algorithm="algorithm2", n_processes=6, seed=9,
                            tick_interval=0.5, max_time=77.0)
        engine = build_engine(scenario)
        assert engine.config.n_processes == 6
        assert engine.config.seed == 9
        assert engine.config.tick_interval == 0.5
        assert engine.config.max_time == 77.0
        assert engine.network.n_processes == 6

    def test_default_scenario_helper(self):
        scenario = default_scenario("algorithm1", n_processes=9)
        assert scenario.algorithm == "algorithm1"
        assert scenario.n_processes == 9
        assert scenario.stop_when_all_correct_delivered
        quiescent = default_scenario("algorithm2")
        assert quiescent.stop_when_quiescent

    def test_default_workload_injected_when_missing(self):
        scenario = Scenario(algorithm="algorithm1", n_processes=3,
                            workload=None, max_time=30.0,
                            stop_when_all_correct_delivered=True)
        result = run_scenario(scenario)
        assert result.simulation.expected_contents == ("m0",)


@pytest.mark.parametrize("engine", sorted(engines.names()))
@pytest.mark.parametrize("algorithm", sorted(algorithms.names()))
def test_analyses_on_demand_equal_the_eager_ones(algorithm, engine):
    """A result computes each analysis when first read, once; what it gets
    is what calling the analysis on the simulation gives."""
    result = run_scenario(default_scenario(
        algorithm, seed=3, engine=engine, loss=LossSpec.bernoulli(0.1)))
    assert not {"verdict", "quiescence", "anonymity"} & set(vars(result))
    anonymous = algorithms.get(algorithm).anonymous
    assert result.allow_identified is (not anonymous)
    assert result.verdict == check_urb_properties(result.simulation)
    assert result.quiescence == analyze_quiescence(result.simulation)
    assert result.anonymity == audit_anonymity(
        result.simulation, allow_identified=not anonymous)
    assert result.anonymity.passed
    assert result.verdict is result.verdict
    assert result.quiescence is result.quiescence
    assert result.anonymity is result.anonymity
