"""Unit tests for the simulation engine and process environment, driven
with tiny hand-assembled runs."""

import pytest

from repro.core.algorithm1 import MajorityUrbProcess
from repro.core.baselines import BestEffortBroadcastProcess
from repro.core.messages import MsgPayload
from repro.network.delay import DelaySpec
from repro.network.fair_lossy import FairLossyChannelFactory
from repro.network.loss import LossSpec
from repro.network.network import Network
from repro.simulation.config import SimulationConfig, StopConditions
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import BroadcastCommand, EventKind
from repro.simulation.faults import CrashSchedule
from repro.simulation.rng import RandomSource
from repro.simulation.tracing import TraceCategory


def build_engine(n=3, *, loss=None, crashes=None, workload=None, max_time=30.0,
                 stop=None, algorithm="algorithm1", seed=0,
                 tick_interval=1.0):
    config = SimulationConfig(
        n_processes=n, max_time=max_time, seed=seed,
        tick_interval=tick_interval,
        stop=stop or StopConditions(),
    )
    network = Network(
        n,
        FairLossyChannelFactory(loss_spec=loss or LossSpec.none(),
                                delay_spec=DelaySpec.fixed(0.25)),
        RandomSource(seed),
    )
    if algorithm == "algorithm1":
        factory = lambda index, env: MajorityUrbProcess(env, n)  # noqa: E731
    else:
        factory = lambda index, env: BestEffortBroadcastProcess(env)  # noqa: E731
    return SimulationEngine(
        config=config,
        network=network,
        process_factory=factory,
        crash_schedule=CrashSchedule.crash_at(n, crashes or {}),
        workload=workload if workload is not None
        else [BroadcastCommand(time=0.0, sender=0, content="m0")],
    )


class TestEngineBasics:
    def test_run_produces_deliveries(self):
        result = build_engine().run()
        assert result.metrics.deliveries == 3
        for index in range(3):
            assert result.deliveries_of(index) == ["m0"]

    def test_result_metadata(self):
        result = build_engine().run()
        assert result.n_processes == 3
        assert result.expected_contents == ("m0",)
        assert result.final_time <= result.config.max_time
        assert "run(" in result.describe()

    def test_network_size_mismatch_rejected(self):
        config = SimulationConfig(n_processes=3)
        network = Network(4, FairLossyChannelFactory(), RandomSource(0))
        with pytest.raises(ValueError):
            SimulationEngine(config, network, lambda i, e: BestEffortBroadcastProcess(e))

    def test_crash_schedule_size_mismatch_rejected(self):
        config = SimulationConfig(n_processes=3)
        network = Network(3, FairLossyChannelFactory(), RandomSource(0))
        with pytest.raises(ValueError):
            SimulationEngine(
                config, network, lambda i, e: BestEffortBroadcastProcess(e),
                crash_schedule=CrashSchedule.none(5),
            )

    def test_workload_sender_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_engine(workload=[BroadcastCommand(time=0.0, sender=9, content="x")])

    def test_trace_contains_broadcast_send_deliver(self):
        result = build_engine().run()
        assert result.trace.count(TraceCategory.URB_BROADCAST) == 1
        assert result.trace.count(TraceCategory.SEND) > 0
        assert result.trace.count(TraceCategory.URB_DELIVER) == 3

    def test_event_stats_populated(self):
        result = build_engine().run()
        assert result.event_stats.dispatched[EventKind.BROADCAST_REQUEST] == 1
        assert result.event_stats.dispatched[EventKind.RECEIVE] > 0

    def test_event_stats_count_every_popped_event_once(self):
        """The loop keeps the RECEIVE count in a local: it must land where a
        per-event count would, copies popped for a crashed process included
        (they are dispatched, and lost), and agree with the metrics."""
        result = build_engine(crashes={1: 0.0}, max_time=6.0).run()
        received = result.event_stats.dispatched[EventKind.RECEIVE]
        live = result.trace.count(TraceCategory.CHANNEL_DELIVER)
        assert live == result.metrics.total_channel_deliveries
        assert received > live > 0
        # No loss and a fixed delay: every copy sent 0.25 or more before the
        # horizon was popped.
        sent_in_time = sum(1 for e in result.trace.filter(TraceCategory.SEND)
                           if e.time + 0.25 <= 6.0)
        assert received == sent_in_time

    def test_event_stats_survive_an_exception_in_a_handler(self):
        engine = build_engine()

        def explode(payload):
            raise RuntimeError("boom")

        engine.processes[2].on_receive = explode
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()
        stats = engine.event_stats.dispatched
        # p0's broadcast reached p0 and p1 before p2's copy blew up.
        assert stats[EventKind.RECEIVE] == 3
        assert stats[EventKind.BROADCAST_REQUEST] == 1
        assert engine.queue.pending_of(EventKind.RECEIVE) == len(
            [event for event in engine.queue
             if event[2] is EventKind.RECEIVE])

    def test_runs_to_horizon_without_stop_condition(self):
        result = build_engine(max_time=12.0).run()
        assert result.stop_reason == "horizon"
        assert result.final_time <= 12.0


class TestCrashHandling:
    def test_crashed_process_stops_participating(self):
        result = build_engine(crashes={2: 0.0}).run()
        # The initially crashed process never delivers and never sends.
        assert result.deliveries_of(2) == []
        assert result.metrics.sends_by_process.get(2, 0) == 0
        assert result.trace.count(TraceCategory.CRASH) == 1

    def test_late_crash_after_delivery_keeps_delivery(self):
        result = build_engine(crashes={2: 20.0}, max_time=25.0).run()
        assert result.deliveries_of(2) == ["m0"]

    def test_crash_for_exploration_is_idempotent_and_folded(self):
        engine = build_engine()
        engine._crash_for_exploration(1)
        engine._crash_for_exploration(1)
        assert engine._crashed == {1}
        assert engine.trace.count(TraceCategory.CRASH) == 1
        assert engine.run().crash_schedule.crash_times == {1: 0.0}

    @pytest.mark.parametrize("crashed", [(0,), (0, 1)], ids=["one", "two"])
    def test_crash_at_the_horizon_changes_only_who_is_correct(self, crashed):
        """A crash declared at ``max_time`` takes no delivery away: only the
        crashed processes' last Task 1 round, at ``max_time`` itself, is
        not sent, and the crashed processes are faulty in the result (E6's
        run R2 relies on this)."""
        plain = build_engine(max_time=30.0).run()
        result = build_engine(crashes={i: 30.0 for i in crashed},
                              max_time=30.0).run()
        for index in range(3):
            assert result.deliveries_of(index) == plain.deliveries_of(index)
            lost = (plain.metrics.sends_by_process[index]
                    - result.metrics.sends_by_process[index])
            assert lost == (3 if index in crashed else 0)
        assert result.crash_schedule.faulty_indices() == crashed
        assert set(result.correct_indices()).isdisjoint(crashed)

    def test_messages_to_crashed_process_are_discarded(self):
        result = build_engine(crashes={1: 0.0}).run()
        deliveries_to_crashed = [
            e for e in result.trace.filter(category=TraceCategory.CHANNEL_DELIVER)
            if e.process == 1
        ]
        assert deliveries_to_crashed == []


class TestEarlyStop:
    def test_stop_when_all_correct_delivered(self):
        stop = StopConditions(stop_when_all_correct_delivered=True)
        result = build_engine(stop=stop, max_time=200.0).run()
        assert result.stop_reason == "all correct delivered"
        assert result.final_time < 200.0

    def test_grace_period_extends_run(self):
        fast = build_engine(
            stop=StopConditions(stop_when_all_correct_delivered=True),
            max_time=200.0,
        ).run()
        slow = build_engine(
            stop=StopConditions(stop_when_all_correct_delivered=True,
                                drain_grace_period=10.0),
            max_time=200.0,
        ).run()
        assert slow.final_time >= fast.final_time + 5.0

    def test_stop_when_quiescent_with_best_effort(self):
        # Best-effort broadcast stops sending after the initial transmission,
        # so the quiescence predicate fires almost immediately.
        stop = StopConditions(stop_when_quiescent=True)
        result = build_engine(algorithm="best_effort", stop=stop,
                              max_time=100.0).run()
        assert result.stop_reason == "quiescent"
        assert result.final_time < 20.0

    def test_algorithm1_never_triggers_quiescence_stop(self):
        stop = StopConditions(stop_when_quiescent=True)
        result = build_engine(stop=stop, max_time=15.0).run()
        assert result.stop_reason == "horizon"

    def test_request_stop(self):
        engine = build_engine(max_time=50.0)
        engine.request_stop("manual")
        result = engine.run()
        assert result.stop_reason == "manual"


class TestAnonymityOfEnvironment:
    def test_process_receives_payload_not_envelope(self):
        received = []

        class Probe(BestEffortBroadcastProcess):
            def on_receive(self, payload):
                received.append(payload)
                super().on_receive(payload)

        config = SimulationConfig(n_processes=2, max_time=5.0)
        network = Network(2, FairLossyChannelFactory(delay_spec=DelaySpec.fixed(0.1)),
                          RandomSource(0))
        engine = SimulationEngine(
            config=config, network=network,
            process_factory=lambda i, env: Probe(env),
            workload=[BroadcastCommand(time=0.0, sender=0, content="m")],
        )
        engine.run()
        assert received
        assert all(isinstance(p, MsgPayload) for p in received)
        # The payload itself carries no sender information.
        assert not any(hasattr(p, "src") for p in received)

    def test_environment_views_empty_without_detectors(self):
        engine = build_engine()
        assert engine.atheta_view(0).is_empty()
        assert engine.apstar_view(0).is_empty()

    def test_broadcast_from_crashed_process_is_dropped(self):
        engine = build_engine()
        engine._crash_for_exploration(0)
        engine.broadcast_from(0, "anything")
        assert engine.metrics.total_sends == 0


class TestDeterminism:
    def test_same_seed_same_trace_length_and_deliveries(self):
        a = build_engine(loss=LossSpec.bernoulli(0.3), seed=5).run()
        b = build_engine(loss=LossSpec.bernoulli(0.3), seed=5).run()
        assert a.metrics.total_sends == b.metrics.total_sends
        assert len(a.trace) == len(b.trace)
        assert [a.deliveries_of(i) for i in range(3)] == [
            b.deliveries_of(i) for i in range(3)
        ]

    def test_different_seed_changes_run(self):
        a = build_engine(loss=LossSpec.bernoulli(0.3), seed=5, max_time=10.0).run()
        b = build_engine(loss=LossSpec.bernoulli(0.3), seed=6, max_time=10.0).run()
        assert a.metrics.total_drops != b.metrics.total_drops
