"""Unit tests for Scenario configuration, experiment reports and sweeps."""

import pytest

from repro.experiments.batch import ScenarioSuite
from repro.experiments.common import (
    count_of,
    crash_last,
    fraction_of,
    mean_of,
    seeds_for,
)
from repro.experiments.config import Scenario
from repro.experiments.report import ExperimentArtifact, ExperimentResult
from repro.failure_detectors.policies import DisseminationPolicy
from repro.network.loss import LossSpec
from repro.registry import algorithms
from repro.workloads.generators import SingleBroadcast


class TestScenario:
    def test_defaults_are_valid(self):
        scenario = Scenario()
        assert scenario.algorithm in algorithms.names()
        assert scenario.n_processes >= 1

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            Scenario(algorithm="paxos")

    def test_unknown_channel_type_rejected(self):
        with pytest.raises(ValueError):
            Scenario(channel_type="carrier_pigeon")

    def test_bad_process_count_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_processes=0)

    def test_crash_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_processes=3, crashes={5: 1.0})

    def test_negative_crash_time_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_processes=3, crashes={0: -1.0})

    def test_all_crashed_rejected(self):
        with pytest.raises(ValueError):
            Scenario(n_processes=2, crashes={0: 1.0, 1: 1.0})

    def test_policy_normalised_from_string(self):
        scenario = Scenario(fd_policy="all_processes")
        assert scenario.fd_policy is DisseminationPolicy.ALL_PROCESSES

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            Scenario(fd_policy="psychic")

    def test_n_crashes_and_majority(self):
        scenario = Scenario(n_processes=5, crashes={3: 1.0, 4: 1.0})
        assert scenario.n_crashes == 2
        assert scenario.has_correct_majority
        minority = Scenario(n_processes=4, crashes={1: 1.0, 2: 1.0, 3: 1.0})
        assert not minority.has_correct_majority

    def test_effective_apstar_delay_defaults_to_atheta(self):
        assert Scenario(fd_detection_delay=7.0).effective_apstar_delay == 7.0
        assert Scenario(fd_detection_delay=7.0,
                        apstar_detection_delay=2.0).effective_apstar_delay == 2.0

    def test_with_seed_and_with(self):
        scenario = Scenario(seed=1)
        assert scenario.with_seed(9).seed == 9
        assert scenario.with_(n_processes=8).n_processes == 8
        assert scenario.seed == 1  # original untouched

    def test_describe(self):
        text = Scenario(name="x", algorithm="algorithm1", n_processes=7).describe()
        assert "x" in text and "algorithm1" in text and "n=7" in text

    def test_invalid_tick_interval(self):
        with pytest.raises(ValueError):
            Scenario(tick_interval=0.0)

    def test_invalid_max_time(self):
        with pytest.raises(ValueError):
            Scenario(max_time=0.0)


class TestCommonHelpers:
    def test_crash_last_keeps_low_indices(self):
        crashes = crash_last(6, 2, time=3.0)
        assert set(crashes) == {4, 5}
        assert all(t == 3.0 for t in crashes.values())

    def test_crash_last_zero(self):
        assert crash_last(5, 0) == {}

    def test_crash_last_rejects_all(self):
        with pytest.raises(ValueError):
            crash_last(3, 3)
        with pytest.raises(ValueError):
            crash_last(3, -1)

    def test_seeds_for(self):
        assert seeds_for(quick=False, seeds=None) >= 1
        assert seeds_for(quick=True, seeds=None) == 1
        assert seeds_for(quick=True, seeds=7) == 7
        with pytest.raises(ValueError):
            seeds_for(quick=False, seeds=0)


class TestExperimentReport:
    def test_artifact_render_and_column(self):
        artifact = ExperimentArtifact(
            name="Table X", kind="table", headers=["a", "b"],
            rows=[[1, 2], [3, 4]], notes="note",
        )
        text = artifact.render()
        assert "Table X" in text and "note" in text
        assert artifact.column("b") == [2, 4]

    def test_artifact_unknown_column(self):
        artifact = ExperimentArtifact("t", "table", ["a"], [[1]])
        with pytest.raises(KeyError):
            artifact.column("z")

    def test_artifact_bad_kind(self):
        with pytest.raises(ValueError):
            ExperimentArtifact("t", "plot", ["a"], [[1]])

    def test_result_render_and_lookup(self):
        artifact = ExperimentArtifact("Table X", "table", ["a"], [[1]])
        result = ExperimentResult(
            experiment_id="E99", title="Demo", artifacts=[artifact],
            parameters={"seeds": 3}, notes="hello",
        )
        text = result.render()
        assert "E99 — Demo" in text
        assert "seeds=3" in text
        assert "hello" in text
        assert result.artifact("Table X") is artifact
        with pytest.raises(KeyError):
            result.artifact("missing")


class TestSweeps:
    @pytest.fixture
    def base(self):
        return Scenario(
            algorithm="algorithm1", n_processes=3, max_time=40.0,
            stop_when_all_correct_delivered=True,
            workload=SingleBroadcast(), loss=LossSpec.none(),
        )

    def swept(self, base, values, seeds, **kwargs):
        return (ScenarioSuite("sweep")
                .add_sweep(base, "n_processes", values, **kwargs)
                .with_seeds(seeds).run(fail_fast=True))

    def test_groups_follow_the_declared_values(self, base):
        groups = self.swept(base, [3, 4], 1).groups()
        assert list(groups) == ["n_processes=3", "n_processes=4"]
        assert [[r.scenario.n_processes for r in results]
                for results in groups.values()] == [[3], [4]]

    def test_builder_points_keep_the_field_label(self, base):
        groups = self.swept(
            base, [0.0, 0.5], 1,
            scenario_builder=lambda s, p: s.with_(loss=LossSpec.bernoulli(p)),
        ).groups()
        assert list(groups) == ["n_processes=0.0", "n_processes=0.5"]
        [result] = groups["n_processes=0.5"]
        assert result.scenario.loss.params["probability"] == 0.5

    def test_mean_and_fraction_over_replications(self, base):
        [results] = self.swept(base, [3], 2).groups().values()
        latencies = [r.metrics.mean_latency for r in results]
        assert [r.scenario.seed for r in results] == [base.seed, base.seed + 1]
        assert mean_of(results, lambda r: r.metrics.mean_latency) == sum(latencies) / 2
        # a replication without the metric leaves the sample, not a zero in it
        assert mean_of(results, lambda r: r.metrics.mean_latency
                       if r.scenario.seed == base.seed else None) == latencies[0]
        assert fraction_of(results, lambda r: r.scenario.seed == base.seed) == 0.5
        assert count_of(results, lambda r: r.scenario.seed == base.seed) == 1

    def test_no_data_is_none_and_zero(self, base):
        [results] = self.swept(base, [3], 1).groups().values()
        assert mean_of(results, lambda r: None) is None
        assert mean_of([], lambda r: 1.0) is None
        assert fraction_of([], lambda r: True) == 0.0
        assert count_of([], lambda r: True) == 0
