"""Built-in exploration strategies: determinism, soundness, enumeration."""

from __future__ import annotations

import pytest

from repro.experiments.config import Scenario
from repro.experiments.runner import build_engine
from repro.explore import CRASH, DELIVER, DROP, FD
from repro.explore.strategies import (
    crash_budget,
    crash_point_schedule_count,
    delay_bound_schedule_count,
    delay_lattice,
)
from repro.network.delay import DelaySpec
from repro.registry import UnknownComponentError, strategies


def _scenario(**overrides) -> Scenario:
    base = dict(
        name="strategy-test",
        algorithm="algorithm1",
        n_processes=4,
        seed=11,
        max_time=120.0,
        stop_when_all_correct_delivered=True,
        drain_grace_period=2.0,
    )
    base.update(overrides)
    return Scenario(**base)


def _run(scenario: Scenario):
    return build_engine(scenario).run()


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert set(strategies.names()) >= {
            "random_walk", "pct", "delay_bound", "crash_points",
        }

    def test_controller_classes_are_their_own_factories(self):
        from repro.explore.strategies import (
            CrashPointController,
            DelayBoundController,
            PctController,
            RandomWalkController,
        )

        assert strategies.get("random_walk").factory is RandomWalkController
        assert strategies.get("pct").factory is PctController
        assert strategies.get("delay_bound").factory is DelayBoundController
        assert strategies.get("crash_points").factory is CrashPointController
        assert strategies.get("crash_points").extra == {"channel_loss": True}

    def test_enumerative_flags(self):
        assert not strategies.get("random_walk").enumerative
        assert not strategies.get("pct").enumerative
        assert strategies.get("delay_bound").enumerative
        assert strategies.get("crash_points").enumerative
        assert strategies.get("delay_bound").schedule_count is not None

    def test_scenario_validates_strategy_name(self):
        with pytest.raises(UnknownComponentError):
            _scenario(explore_strategy="nope")
        with pytest.raises(ValueError):
            _scenario(explore_strategy="random_walk", explore_index=-1)


class TestDelayLattice:
    def test_uniform_covers_extremes(self):
        lattice = delay_lattice(_scenario(delay=DelaySpec.uniform(0.1, 0.7)))
        assert lattice[0] == pytest.approx(0.1)
        assert lattice[-1] == pytest.approx(0.7)
        assert list(lattice) == sorted(lattice)

    def test_fixed_is_single_point(self):
        assert delay_lattice(_scenario(delay=DelaySpec.fixed(0.3))) == (0.3,)

    def test_exponential_respects_cap(self):
        lattice = delay_lattice(
            _scenario(delay=DelaySpec.exponential(mean=0.4, cap=2.0)))
        assert lattice[-1] == pytest.approx(2.0)


class TestCrashBudget:
    def test_majority_algorithm_budget(self):
        assert crash_budget(_scenario()) == 1              # n=4 -> t <= 1
        assert crash_budget(_scenario(n_processes=5)) == 2
        assert crash_budget(_scenario(crashes={3: 1.0})) == 0

    def test_detector_algorithms_get_no_injected_crashes(self):
        scenario = _scenario(algorithm="algorithm2",
                             stop_when_all_correct_delivered=False,
                             stop_when_quiescent=True)
        assert crash_budget(scenario) == 0

    def test_non_majority_algorithm_keeps_one_correct(self):
        assert crash_budget(_scenario(algorithm="best_effort")) == 3


class TestRandomWalk:
    def test_same_index_is_deterministic(self):
        scenario = _scenario(explore_strategy="random_walk", explore_index=2)
        first, second = _run(scenario), _run(scenario)
        assert first.schedule.decisions == second.schedule.decisions
        assert first.trace.digest() == second.trace.digest()

    def test_different_indices_differ(self):
        hashes = {
            _run(_scenario(explore_strategy="random_walk",
                           explore_index=i)).schedule.schedule_hash
            for i in range(4)
        }
        assert len(hashes) > 1

    def test_crash_injection_respects_budget(self):
        # Aggressive crash probability: across many schedules, no run may
        # ever inject more crashes than the majority assumption allows.
        scenario = _scenario(
            metadata={"explore_crash_probability": 0.5},
        )
        for index in range(6):
            result = _run(scenario.with_(explore_strategy="random_walk",
                                         explore_index=index))
            crashes = sum(
                1 for d in result.schedule.decisions if d[0] == CRASH)
            assert crashes <= 1
            assert result.crash_schedule.n_faulty <= 1

    def test_no_crash_decisions_for_detector_algorithms(self):
        scenario = _scenario(
            algorithm="algorithm2",
            stop_when_all_correct_delivered=False,
            stop_when_quiescent=True,
            max_time=250.0,
            metadata={"explore_crash_probability": 0.9},
            explore_strategy="random_walk",
        )
        result = _run(scenario)
        assert all(d[0] != CRASH for d in result.schedule.decisions)

    def test_fd_staleness_opt_in_and_replayable(self):
        scenario = _scenario(
            algorithm="algorithm2",
            stop_when_all_correct_delivered=False,
            stop_when_quiescent=True,
            max_time=300.0,
            metadata={"explore_fd_stale_probability": 0.3},
            explore_strategy="random_walk",
            explore_index=1,
        )
        result = _run(scenario)
        fd_decisions = [d for d in result.schedule.decisions if d[0] == FD]
        assert fd_decisions, "expected at least one stale FD query"
        # Staleness bounded by the default (the FD detection delay).
        assert all(d[2] == scenario.fd_detection_delay for d in fd_decisions)

        from repro.explore import replay_decisions

        simulation, _ = replay_decisions(scenario, result.schedule.decisions)
        assert simulation.trace.digest() == result.trace.digest()


class TestPct:
    def test_pct_only_reorders(self):
        scenario = _scenario(explore_strategy="pct", explore_index=0)
        result = _run(scenario)
        kinds = {d[0] for d in result.schedule.decisions}
        assert kinds == {DELIVER}

    def test_pct_delays_bounded_by_lattice_span(self):
        scenario = _scenario(explore_strategy="pct", explore_index=1)
        lattice = delay_lattice(scenario)
        result = _run(scenario)
        delays = [d[1] for d in result.schedule.decisions]
        assert delays
        assert min(delays) >= lattice[0]
        assert max(delays) <= lattice[-1] + 1e-9

    def test_pct_indices_give_distinct_orderings(self):
        hashes = {
            _run(_scenario(explore_strategy="pct",
                           explore_index=i)).schedule.schedule_hash
            for i in range(3)
        }
        assert len(hashes) == 3


class TestDelayBoundEnumeration:
    def test_schedule_count(self):
        scenario = _scenario(metadata={"explore_enum_points": 3})
        assert delay_bound_schedule_count(scenario) == 8

    def test_all_schedules_distinct(self):
        scenario = _scenario(metadata={"explore_enum_points": 3})
        hashes = {
            _run(scenario.with_(explore_strategy="delay_bound",
                                explore_index=i)).schedule.schedule_hash
            for i in range(8)
        }
        assert len(hashes) == 8

    def test_out_of_range_index_rejected(self):
        scenario = _scenario(metadata={"explore_enum_points": 2},
                             explore_strategy="delay_bound", explore_index=99)
        with pytest.raises(ValueError, match="out of range"):
            build_engine(scenario)


class TestCrashPointEnumeration:
    def test_schedule_count(self):
        scenario = _scenario(metadata={"explore_crash_steps": 5})
        assert crash_point_schedule_count(scenario) == 20   # 4 victims x 5

    def test_each_schedule_crashes_its_victim(self):
        scenario = _scenario(metadata={"explore_crash_steps": 2})
        result = _run(scenario.with_(explore_strategy="crash_points",
                                     explore_index=3))   # victim 1, step 1
        assert not result.crash_schedule.is_correct(1)
        assert sum(1 for d in result.schedule.decisions if d[0] == CRASH) == 1

    def test_rejected_for_detector_algorithms(self):
        scenario = _scenario(
            algorithm="algorithm2",
            stop_when_all_correct_delivered=False,
            stop_when_quiescent=True,
        )
        assert crash_point_schedule_count(scenario) == 0
        with pytest.raises(ValueError, match="crash_points requires"):
            strategies.get("crash_points").factory(scenario, 0)

    def test_loss_and_delay_delegate_to_channels(self):
        # With no configured loss, every non-crash decision is a delivery
        # drawn from the channel's own delay model.
        scenario = _scenario(metadata={"explore_crash_steps": 2},
                             explore_strategy="crash_points", explore_index=0)
        result = _run(scenario)
        kinds = {d[0] for d in result.schedule.decisions}
        assert DROP not in kinds
