"""Schedule-controller hook points: parity, provenance, replay, crashes."""

from __future__ import annotations

import pytest

from repro.experiments.config import Scenario
from repro.experiments.runner import build_engine
from repro.explore import (
    CRASH,
    DELIVER,
    DROP,
    DefaultScheduleController,
    RecordingController,
    ReplayController,
    ScheduleController,
    hash_decisions,
)
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.registry import strategies
from repro.simulation.engine import CRASH_SENDER
from repro.simulation.tracing import TraceCategory


def _scenario(**overrides) -> Scenario:
    base = dict(
        name="controller-test",
        algorithm="algorithm1",
        n_processes=4,
        seed=7,
        max_time=120.0,
        stop_when_all_correct_delivered=True,
        drain_grace_period=2.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestDefaultControllerParity:
    """With the default controller, runs are bit-identical to PR 2 paths."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"loss": LossSpec.bernoulli(0.25), "crashes": {3: 4.0}},
        {"algorithm": "algorithm2", "loss": LossSpec.bernoulli(0.15),
         "stop_when_all_correct_delivered": False,
         "stop_when_quiescent": True, "max_time": 250.0},
        # Loss and delay both random: every copy draws two channel streams,
        # so a changed draw order cannot cancel out.
        {"loss": LossSpec.bernoulli(0.3),
         "delay": DelaySpec.uniform(0.05, 0.5), "crashes": {2: 1.5}},
    ])
    def test_trace_and_metrics_identical(self, overrides):
        scenario = _scenario(**overrides)
        plain = build_engine(scenario).run()
        controlled = build_engine(
            scenario, controller=DefaultScheduleController()
        ).run()
        assert plain.trace.digest() == controlled.trace.digest()
        assert (plain.metrics_summary().as_dict()
                == controlled.metrics_summary().as_dict())
        assert plain.final_time == controlled.final_time


class TestScheduleProvenance:
    def test_default_run_records_provenance(self):
        result = build_engine(_scenario()).run()
        assert result.schedule is not None
        assert result.schedule.strategy == "default"
        assert result.schedule.seed == 7
        assert result.schedule.decision_count == 0
        assert result.schedule.decisions == ()

    def test_trace_header_carries_provenance(self):
        result = build_engine(_scenario()).run()
        header = result.trace.header
        assert header["strategy"] == "default"
        assert header["seed"] == 7
        assert header["schedule_hash"] == result.schedule.schedule_hash

    def test_header_written_even_when_tracing_disabled(self):
        result = build_engine(_scenario(trace_enabled=False)).run()
        assert result.trace.header["strategy"] == "default"

    def test_strategy_run_records_decisions(self):
        scenario = _scenario(explore_strategy="random_walk", explore_index=3)
        result = build_engine(scenario).run()
        assert result.schedule.strategy == "random_walk"
        assert result.schedule.schedule_index == 3
        assert result.schedule.decision_count == len(result.schedule.decisions) > 0
        assert result.schedule.schedule_hash == hash_decisions(
            result.schedule.decisions
        )

    def test_hash_is_stable_and_order_sensitive(self):
        decisions = (("deliver", 0.5), ("drop",), ("fd", 3, 1.0))
        assert hash_decisions(decisions) == hash_decisions(list(decisions))
        assert hash_decisions(decisions) != hash_decisions(decisions[::-1])
        assert len(hash_decisions(())) == 16

    def test_hash_of_a_mixed_trace_is_the_pinned_one(self):
        # Stored artifacts and the explorer's dedup key on this value;
        # the literal was computed at PR 15, before the hash stopped
        # copying its input.
        decisions = [("deliver", 0.5), ("drop",), ("crash",), ("fd", 3, 1.0),
                     ("deliver", 0.125), ("fd", 7, 2.5)]
        as_lists = [list(decision) for decision in decisions]
        assert (hash_decisions(decisions) == hash_decisions(as_lists)
                == "7433e8b904af0a0f")


class _ScriptedController(RecordingController):
    """Plays back a fixed list of choices (tests drive it directly)."""

    def __init__(self, script, fairness_bound=None):
        super().__init__("scripted", 0, fairness_bound=fairness_bound)
        self._script = list(script)

    def _choose_copy(self, engine, src, dst, payload, key, now):
        if self._script:
            return self._script.pop(0)
        return (DELIVER, 0.1)


class TestRecordingController:
    def test_fairness_guard_forces_delivery(self):
        controller = _ScriptedController([(DROP,)] * 10, fairness_bound=2)
        scenario = _scenario()
        engine = build_engine(scenario, controller=controller)
        engine.run()
        # After 2 consecutive drops of the same (channel, key), the guard
        # converts further drop choices into deliveries.
        decisions = list(controller.decisions)
        assert (DROP,) in decisions
        kinds = [d[0] for d in decisions]
        assert DELIVER in kinds

    def test_unknown_decision_rejected(self):
        controller = _ScriptedController([("warp", 1.0)])
        with pytest.raises(ValueError, match="unknown copy decision"):
            build_engine(_scenario(), controller=controller).run()


class TestControllerCrashes:
    def test_crash_sentinel_crashes_sender_mid_broadcast(self):
        # Crash the sender at its second copy: exactly one SEND is recorded
        # for the first broadcast and the victim is marked crashed.
        controller = _ScriptedController([(DELIVER, 0.1), (CRASH,)])
        engine = build_engine(_scenario())
        engine.controller = controller
        result = engine.run()
        crashes = result.trace.filter(category=TraceCategory.CRASH)
        assert crashes and crashes[0].process == 0
        assert crashes[0].detail("forced") is True
        first_time = crashes[0].time
        sends_at_crash = [
            e for e in result.trace.filter(category=TraceCategory.SEND)
            if e.process == 0 and e.time == first_time
        ]
        assert len(sends_at_crash) == 1

    def test_forced_crash_reflected_in_result_crash_schedule(self):
        controller = _ScriptedController([(CRASH,)])
        engine = build_engine(_scenario())
        engine.controller = controller
        result = engine.run()
        assert not result.crash_schedule.is_correct(0)
        assert 0 not in result.correct_indices()


class TestReplayController:
    def test_replay_reproduces_strategy_run_bit_identically(self):
        scenario = _scenario(explore_strategy="random_walk", explore_index=5)
        original = build_engine(scenario).run()
        replay = ReplayController(original.schedule.decisions)
        replayed = build_engine(
            scenario.with_(explore_strategy=None), controller=replay
        ).run()
        assert replayed.trace.digest() == original.trace.digest()
        assert (replayed.schedule.schedule_hash
                == original.schedule.schedule_hash)

    def test_truncated_replay_falls_back_to_channel_rng(self):
        scenario = _scenario(explore_strategy="random_walk", explore_index=5)
        original = build_engine(scenario).run()
        truncated = original.schedule.decisions[:4]
        clean = scenario.with_(explore_strategy=None)
        first = build_engine(
            clean, controller=ReplayController(truncated)
        ).run()
        second = build_engine(
            clean, controller=ReplayController(truncated)
        ).run()
        # Deterministic: the fallback draws the scenario's seeded channels.
        assert first.trace.digest() == second.trace.digest()
        assert first.schedule.decision_count >= len(truncated)

    def test_replay_rejects_unknown_decisions(self):
        with pytest.raises(ValueError, match="unknown decision"):
            ReplayController([("warp", 1)])


class TestBaseControllerInterface:
    def test_base_controller_delegates_to_channel(self):
        scenario = _scenario()
        engine = build_engine(scenario)
        controller = ScheduleController()
        outcome = controller.copy_decision(
            engine, 0, 1, object(), "key", 0.0
        )
        assert outcome is None or outcome >= 0.0
        assert set(engine.network.channels) == {(0, 1)}
        assert controller.decisions == ()
        assert controller.atheta_view(engine, 0, 0.0) is None

    def test_crash_sender_sentinel_identity(self):
        # The sentinel is compared by identity in the engine loop.
        assert CRASH_SENDER is not None


def _lossy(**overrides) -> Scenario:
    return _scenario(loss=LossSpec.bernoulli(0.2),
                     delay=DelaySpec.uniform(0.05, 0.5), **overrides)


def _run_with_engine(scenario, controller=None):
    engine = build_engine(scenario, controller=controller)
    return engine, engine.run()


def _sent_on(result, skip=0):
    """Channels of the run's copies, leaving out the first *skip* sends."""
    sends = result.trace.filter(category=TraceCategory.SEND)
    return {(event.process, event.detail("dst")) for event in sends[skip:]}


class TestControllersResolveTheChannelsTheyRead:
    """The engine hands no channel to a controller, so a run builds (and
    seeds) exactly the channels some controller transmitted on."""

    @pytest.mark.parametrize("strategy", sorted(strategies.names()))
    def test_decision_driven_strategies_build_no_channel(self, strategy):
        engine, result = _run_with_engine(
            _lossy(explore_strategy=strategy, explore_index=1))
        assert result.schedule.decision_count > 0
        reads_channels = strategies.get(strategy).extra.get(
            "channel_loss", False)
        assert bool(engine.network.channels) == reads_channels

    def test_crash_points_builds_only_the_channels_it_transmits_on(self):
        # Schedule 4 of 2 steps: process 2 crashes at its first copy, so
        # none of its channels is ever read.
        engine, result = _run_with_engine(_lossy(
            metadata={"explore_crash_steps": 2},
            explore_strategy="crash_points", explore_index=4))
        built = set(engine.network.channels)
        assert built == _sent_on(result)
        assert built and not any(src == 2 for src, _ in built)

    def test_default_controller_builds_only_the_channels_it_transmits_on(self):
        engine, result = _run_with_engine(
            _lossy(crashes={3: 0.0}), DefaultScheduleController())
        built = set(engine.network.channels)
        assert built == _sent_on(result)
        assert len(built) == 12

    def test_replay_builds_only_the_channels_its_tail_falls_back_to(self):
        walk = build_engine(
            _lossy(explore_strategy="random_walk", explore_index=5)).run()
        decisions = walk.schedule.decisions
        engine, _ = _run_with_engine(_lossy(), ReplayController(decisions))
        assert engine.network.channels == {}

        prefix = decisions[:-5]
        engine, result = _run_with_engine(_lossy(), ReplayController(prefix))
        replayed_sends = sum(1 for d in prefix if d[0] != CRASH)
        built = set(engine.network.channels)
        assert built == _sent_on(result, skip=replayed_sends)
        assert 0 < len(built) <= 5


#: ``(trace.digest(), schedule_hash)`` of the controlled runs of
#: :func:`_lossy`, computed at PR 15, when the engine still built every
#: channel of a broadcast and passed it to ``copy_decision``.  The runs that
#: read channels must draw the same streams in the same order now that the
#: controller resolves them.
PINNED_CONTROLLED_RUNS = {
    "random_walk": (
        "472df039c5227e2e48316f99de19137d16a165656a13bce39c9d290e9caf9c9c",
        "50637b435e153b10"),
    "pct": (
        "3cabb96c645aa31d5be4c21a6d87c84ccc92aa83fe143805017d93bfea5e8b48",
        "94ca0f9ee7b749d7"),
    "crash_points": (
        "7079bdde7089d8ada51dad89d20ef5335fc789914c82c30936850c346ef736ff",
        "a75d4310de08c4bf"),
    "default": (
        "17a940b505386d01fcb8ceb2c96f6e9f5eaea7a8283650c43701d709bc859a82",
        "4f53cda18c2baa0c"),
    "replay_truncated": (
        "207fc642e75d732810e99135a49a6d53f7e45b449f6a84e9368e2c6cf75694d0",
        "08901dc4c5170098"),
}


class TestPinnedControlledRuns:
    @staticmethod
    def _pin(result):
        return result.trace.digest(), result.schedule.schedule_hash

    @pytest.mark.parametrize("strategy, index", [
        ("random_walk", 5), ("pct", 2), ("crash_points", 5),
    ])
    def test_strategy_schedule(self, strategy, index):
        result = build_engine(
            _lossy(explore_strategy=strategy, explore_index=index)).run()
        assert self._pin(result) == PINNED_CONTROLLED_RUNS[strategy]

    def test_default_controller(self):
        result = build_engine(
            _lossy(), controller=DefaultScheduleController()).run()
        assert self._pin(result) == PINNED_CONTROLLED_RUNS["default"]

    def test_full_and_truncated_replays(self):
        walk = build_engine(
            _lossy(explore_strategy="random_walk", explore_index=5)).run()
        decisions = walk.schedule.decisions

        def replay(trace):
            return self._pin(build_engine(
                _lossy(), controller=ReplayController(trace)).run())

        assert replay(decisions) == PINNED_CONTROLLED_RUNS["random_walk"]
        # 12 replayed decisions, then some 200 copies left to the channels.
        assert (replay(decisions[:12])
                == PINNED_CONTROLLED_RUNS["replay_truncated"])
