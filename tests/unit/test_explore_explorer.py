"""Explorer end-to-end: clean protocols stay clean, broken ones are caught,
counterexamples dedup, shrink, serialise and replay."""

from __future__ import annotations

import hashlib

import pytest

from helpers import track_live_runs
from repro.analysis.properties import violation_signature
from repro.experiments.config import Scenario
from repro.explore import (
    DELIVER,
    Counterexample,
    Explorer,
    RecordingController,
    explore,
    load_counterexample,
    replay_counterexample,
    replay_decisions,
    scenario_from_dict,
    scenario_to_dict,
    write_counterexample,
)
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.registry import StrategySpec, strategies


#: The counters of an :class:`ExplorationReport`.
_COUNTS = ("schedules_run", "unique_schedules", "duplicate_schedules",
           "property_violations", "failures")


def _scenario(**overrides) -> Scenario:
    base = dict(
        name="explorer-test",
        algorithm="algorithm1",
        n_processes=4,
        seed=0,
        max_time=150.0,
        stop_when_all_correct_delivered=True,
        drain_grace_period=2.0,
    )
    base.update(overrides)
    return Scenario(**base)


def _broken_scenario(**overrides) -> Scenario:
    return _scenario(algorithm="algorithm1_noretx", max_time=60.0, **overrides)


class TestExplorerCleanProtocols:
    def test_algorithm1_random_walk_finds_nothing(self):
        report = explore(_scenario(), "random_walk", budget=12, shrink=False)
        assert report.ok
        assert report.schedules_run == 12
        assert not report.counterexamples
        assert all(count == 0 for count in report.property_violations.values())

    def test_algorithm2_pct_finds_nothing(self):
        scenario = _scenario(algorithm="algorithm2",
                             stop_when_all_correct_delivered=False,
                             stop_when_quiescent=True, max_time=250.0)
        report = explore(scenario, "pct", budget=8, shrink=False)
        assert report.ok

    def test_report_describe_mentions_throughput(self):
        report = explore(_scenario(), "random_walk", budget=4, shrink=False)
        text = report.describe()
        assert "schedules/s" in text
        assert "Validity: OK" in text


class TestExplorerCatchesBrokenProtocol:
    def test_broken_variant_is_caught_and_shrunk(self):
        report = explore(_broken_scenario(), "random_walk", budget=30)
        assert not report.ok
        assert report.counterexamples
        counterexample = report.counterexamples[0]
        assert counterexample.signature
        assert counterexample.shrunk_decisions is not None
        assert counterexample.shrunk_verified
        assert len(counterexample.shrunk_decisions) <= len(
            counterexample.decisions)

    def test_shrunk_counterexample_replays_to_same_violation(self):
        report = explore(_broken_scenario(), "random_walk", budget=30)
        counterexample = report.counterexamples[0]
        _, verdict = replay_decisions(
            counterexample.scenario, counterexample.shrunk_decisions)
        assert violation_signature(verdict) == counterexample.signature

    def test_property_stats_count_unique_violations(self):
        report = explore(_broken_scenario(), "random_walk", budget=30,
                         shrink=False)
        total_violating = sum(
            1 for c in report.counterexamples)
        assert total_violating > 0
        assert sum(report.property_violations.values()) >= total_violating


class TestExplorerMechanics:
    def test_enumerative_budget_is_capped(self):
        scenario = _scenario(metadata={"explore_enum_points": 2})
        report = explore(scenario, "delay_bound", budget=100, shrink=False)
        assert report.budget == 4
        assert report.schedules_run == 4
        assert report.unique_schedules == 4

    def test_duplicate_schedules_deduplicated(self):
        class ConstantController(RecordingController):
            def __init__(self):
                super().__init__("constant", 0)

            def _choose_copy(self, engine, src, dst, payload, key, now):
                return (DELIVER, 0.2)

        spec = StrategySpec(
            name="constant",
            factory=lambda scenario, index: ConstantController(),
            description="every index produces the same schedule",
        )
        with strategies.scoped(spec):
            report = explore(_scenario(), "constant", budget=5, shrink=False)
        assert report.schedules_run == 5
        assert report.unique_schedules == 1
        assert report.duplicate_schedules == 4

    def test_parallel_equals_sequential(self):
        scenario = _broken_scenario()
        sequential = explore(scenario, "random_walk", budget=8, shrink=False)
        parallel = explore(scenario, "random_walk", budget=8, shrink=False,
                           parallel=2)
        assert parallel.parallel == 2
        # Digests made in the workers: same counts, and whole counterexamples
        # (scenario, decisions, signature) equal and in the same order.
        assert sequential.counterexamples
        assert parallel.counterexamples == sequential.counterexamples
        assert [getattr(parallel, name) for name in _COUNTS] == [
            getattr(sequential, name) for name in _COUNTS]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_report_is_pinned(self, parallel):
        """Literals computed before the explorer folded digests instead of
        results: the fold must not move, inline or through the pool."""
        report = explore(_broken_scenario(), "random_walk", budget=150,
                         shrink=False, parallel=parallel)
        assert (report.schedules_run, report.unique_schedules,
                report.duplicate_schedules) == (150, 138, 12)
        assert report.property_violations == {
            "Validity": 65, "Uniform Agreement": 59, "Uniform Integrity": 0}
        hashes = [c.schedule_hash for c in report.counterexamples]
        assert len(hashes) == 104
        assert hashes[:3] == ["486d297cbbc9ce9d", "1130182911596912",
                              "d0e8b329b5a85fc0"]
        assert hashes[-3:] == ["332f1e7577202211", "4c9947b774540c31",
                               "b7e6f3195ade9020"]
        assert hashlib.sha256(",".join(hashes).encode()).hexdigest()[:16] \
            == "287784cb874819d8"

    def test_pays_for_the_verdict_alone(self, monkeypatch):
        """Of a result's analyses the explorer reads only the verdict, so
        an explored schedule runs no other."""
        from repro.experiments import runner

        calls = {name: 0 for name in ("check_urb_properties",
                                      "analyze_quiescence", "audit_anonymity")}

        def spy(name):
            real = getattr(runner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(runner, name, counted)

        for name in calls:
            spy(name)
        report = explore(_broken_scenario(), "random_walk", budget=12,
                         shrink=False)
        assert report.schedules_run == 12 and report.counterexamples
        assert calls == {"check_urb_properties": 12, "analyze_quiescence": 0,
                         "audit_anonymity": 0}

    def test_holds_one_run_at_a_time(self, monkeypatch):
        live, at_finish = track_live_runs(monkeypatch)
        held = []
        report = explore(_broken_scenario(), "random_walk", budget=40,
                         shrink=False,
                         progress=lambda *_: held.append(len(live)))
        assert report.schedules_run == 40 and report.counterexamples
        # Alone when it finished, digested and gone before the next step.
        assert at_finish == [1] * 40 and held == [0] * 40
        assert not live

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Explorer(_scenario(), budget=0)

    def test_trace_disabled_scenario_rejected(self):
        # With tracing off every property checker passes vacuously, so the
        # explorer refuses to report a meaningless "OK".
        with pytest.raises(ValueError, match="trace_enabled"):
            Explorer(_scenario(trace_enabled=False))

    def test_injected_crash_still_stops_early(self):
        # A controller-injected crash removes its victim from the effective
        # correct set; the stop_when_all_correct_delivered predicate must
        # consult that set, not the declared schedule, or the run would
        # spin to the horizon waiting for the dead process's deliveries.
        from repro.experiments.runner import build_engine

        # crash_points schedule 4 with steps=2: victim is process 2 (not
        # the broadcaster), crashed at its first send — it never delivers,
        # but the three surviving processes do.
        scenario = _scenario(
            metadata={"explore_crash_steps": 2},
            explore_strategy="crash_points", explore_index=4,
        )
        result = build_engine(scenario).run()
        assert not result.crash_schedule.is_correct(2)
        assert result.stop_reason == "all correct delivered"
        assert result.final_time < scenario.max_time

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Explorer(_scenario(), strategy="definitely-not-registered")

    def test_empty_schedule_space_raises(self):
        scenario = _scenario(algorithm="algorithm2",
                             stop_when_all_correct_delivered=False,
                             stop_when_quiescent=True)
        with pytest.raises(ValueError, match="crash_points requires"):
            Explorer(scenario, strategy="crash_points").run()


class TestArtifacts:
    def test_artifacts_written_and_replayable(self, tmp_path):
        report = explore(_broken_scenario(), "random_walk", budget=30,
                         artifacts_dir=tmp_path)
        counterexample = report.counterexamples[0]
        assert counterexample.artifact_path is not None
        assert counterexample.artifact_path.exists()

        data = load_counterexample(counterexample.artifact_path)
        assert data["schedule_hash"] == counterexample.schedule_hash
        assert data["decisions"] == counterexample.decisions
        assert isinstance(data["scenario"], Scenario)

        _, verdict = replay_counterexample(counterexample.artifact_path)
        assert violation_signature(verdict) == counterexample.signature

    def test_full_trace_replay_from_artifact(self, tmp_path):
        report = explore(_broken_scenario(), "random_walk", budget=30,
                         artifacts_dir=tmp_path)
        counterexample = report.counterexamples[0]
        _, verdict = replay_counterexample(
            counterexample.artifact_path, shrunk=False)
        assert violation_signature(verdict) == counterexample.signature


class TestScenarioSerialization:
    def test_round_trip_preserves_fields(self):
        scenario = _scenario(
            crashes={3: 2.5},
            loss=LossSpec.bernoulli(0.3),
            delay=DelaySpec.exponential(mean=0.4, cap=2.0),
            workload="burst",
            metadata={"burst_size": 3, "explore_drop_probability": 0.4},
        )
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt == scenario

    def test_partition_scenario_round_trips_keys_and_is_written(self, tmp_path):
        from repro.campaigns import scenario_cell_key
        from repro.experiments.impossibility import build_partition_scenario

        scenario = build_partition_scenario(majority_threshold=2, seed=3)
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt == scenario
        assert scenario_cell_key(rebuilt) == scenario_cell_key(scenario)
        path = write_counterexample(Counterexample(
            scenario=scenario, strategy="random_walk", schedule_index=0,
            seed=3, schedule_hash="0" * 16, decisions=((DELIVER, 0.5),),
            violations=("uniform_agreement",),
            signature=("uniform_agreement",)), tmp_path)
        assert load_counterexample(path)["scenario"] == scenario

    def test_rejects_unserialisable_scenarios(self):
        with pytest.raises(ValueError, match="custom"):
            scenario_to_dict(_scenario(
                loss=LossSpec(kind="custom",
                              factory=lambda src, dst, rng: None)))

    def test_rejects_inline_workloads(self):
        from repro.workloads.generators import SingleBroadcast

        with pytest.raises(ValueError, match="named"):
            scenario_to_dict(_scenario(workload=SingleBroadcast(0, 0.0)))
