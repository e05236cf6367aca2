"""What the per-event loop books between dispatches, and how a reception
reaches its handler.

The loop handles a RECEIVE with a pop, the clock and the handler its
process's receive table names for the payload's class; the queue's pending
counts, ``last_popped_time``, the event count and the metrics' channel
deliveries are booked before every other event and when the loop ends.
These tests read those books where a dispatch reads them, and drive the
table's fall-through to ``on_receive`` on both loops.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import pytest

from repro.core import (
    AnonymousProcess,
    MajorityUrbProcess,
    MsgPayload,
    TaggedMessage,
)
from repro.core.interfaces import BroadcastProtocol
from repro.experiments.config import Scenario
from repro.experiments.parity import parity_cases
from repro.experiments.runner import build_engine
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.registry import algorithms, register_algorithm
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventKind
from repro.simulation.tracing import TraceCategory, TraceLevel, TraceRecorder

ENGINES = ("reference", "vectorized")


def _recount(queue) -> list[int]:
    """The queue's pending counts, recounted from its entries."""
    kinds = Counter(entry[2].slot for entry in queue._entries())
    return [kinds[slot] for slot in range(len(EventKind))]


@pytest.mark.parametrize("case", parity_cases(), ids=lambda case: case.name)
def test_pending_counts_are_booked_before_every_dispatch(case, monkeypatch):
    seen = []
    dispatch = SimulationEngine._dispatch

    def checked(engine, kind, target, payload):
        seen.append(kind)
        assert engine.queue.pending == _recount(engine.queue)
        assert engine.queue.last_popped_time == engine._now
        dispatch(engine, kind, target, payload)

    monkeypatch.setattr(SimulationEngine, "_dispatch", checked)
    built = build_engine(case.with_(engine="reference"))
    result = built.run()
    assert seen.count(EventKind.TICK) > 0
    assert EventKind.ENGINE_CHECK in seen or not case.stop_when_quiescent
    # What the loop booked when it ended adds up as well.
    assert built.queue.pending == _recount(built.queue)
    assert result.event_stats.dispatched[EventKind.RECEIVE] > 0


def _crashing(engine: str, level: TraceLevel):
    scenario = Scenario(
        name="lost-copies", algorithm="algorithm1", n_processes=5, seed=3,
        loss=LossSpec.bernoulli(0.2), delay=DelaySpec.uniform(0.1, 0.5),
        workload="all_to_all", crashes={1: 1.5, 3: 4.0}, max_time=8.0,
        engine=engine)
    built = build_engine(scenario)
    built.trace = TraceRecorder(level=level)
    return built.run()


def test_channel_deliveries_are_exact_with_crashed_destinations():
    full = _crashing("reference", TraceLevel.FULL)
    received = full.event_stats.dispatched[EventKind.RECEIVE]
    delivered = full.metrics.total_channel_deliveries
    # Every popped copy to a live process has its CHANNEL_DELIVER row; the
    # crashed processes lost the others.
    assert delivered == full.trace.count(TraceCategory.CHANNEL_DELIVER)
    assert received - delivered > 0
    for engine in ENGINES:
        run = _crashing(engine, TraceLevel.DELIVERIES)
        assert run.metrics.total_channel_deliveries == delivered
        assert run.event_stats.dispatched[EventKind.RECEIVE] == received


def test_the_clock_is_set_before_the_drain_deadline_is_tested():
    # The run stops at the first event at or after its drain deadline, with
    # the clock at that event: 5.0 here, not the last event before it.
    scenario = Scenario(
        name="drained", algorithm="algorithm2", n_processes=6, seed=1234,
        loss=LossSpec.bernoulli(0.05), delay=DelaySpec.uniform(0.05, 0.5),
        workload="burst", metadata={"burst_size": 2},
        stop_when_quiescent=True, drain_grace_period=2.0, max_time=400.0)
    for engine in ENGINES:
        result = build_engine(scenario.with_(engine=engine)).run()
        assert (result.stop_reason, result.final_time) == ("quiescent", 5.0)


# --------------------------------------------------------------------------- #
# the receive table's fall-through to on_receive, on both loops
# --------------------------------------------------------------------------- #
class OnReceiveOnly(BroadcastProtocol):
    """Delivers what it receives; defines no table of its own."""

    name = "on_receive_only"

    def urb_broadcast(self, content: Any) -> None:
        self.env.broadcast(content)

    def on_receive(self, payload: Any) -> None:
        if payload not in self.delivered_contents():
            self._record_delivery(TaggedMessage(payload, 0))

    def on_tick(self) -> None:
        return None


class LoudMsg(MsgPayload):
    """A payload subclass: not in any table, handled as its base."""

    __slots__ = ()


class LoudMajorityUrb(MajorityUrbProcess):
    name = "loud_majority"

    def on_tick(self) -> None:
        for message in self.state.msg_set.as_list():
            self.env.broadcast(LoudMsg(message))


class GarbageSender(MajorityUrbProcess):
    name = "garbage_sender"

    def urb_broadcast(self, content: Any) -> None:
        self.env.broadcast("garbage")


@pytest.fixture
def registered():
    names = []

    def register(name, build):
        register_algorithm(name, description=name)(build)
        names.append(name)
        return name

    yield register
    for name in names:
        algorithms.unregister(name)


def _built(algorithm: str, engine: str, loss: float = 0.1):
    """An engine for *algorithm*; the vectorized one takes its batched path
    (a DELIVERIES trace), whose replay loop reads the tables too."""
    built = build_engine(Scenario(
        name="table", algorithm=algorithm, n_processes=4, seed=9,
        loss=LossSpec.bernoulli(loss), delay=DelaySpec.uniform(0.1, 0.4),
        max_time=12.0, engine=engine))
    built.trace = TraceRecorder(level=TraceLevel.DELIVERIES)
    return built


@pytest.mark.parametrize("engine", ENGINES)
def test_a_protocol_with_only_on_receive_gets_every_payload(engine, registered):
    name = registered("on_receive_only_test",
                      lambda scenario, index, env: OnReceiveOnly(env))
    # No loss: the one broadcast reaches everyone once.
    built = _built(name, engine, loss=0.0)
    result = built.run()
    assert all(result.deliveries_of(index) == [result.expected_contents[0]]
               for index in range(4))
    assert result.execution.dispatch_mode == \
        ("batched" if engine == "vectorized" else "per-event")


@pytest.mark.parametrize("engine", ENGINES)
def test_a_payload_subclass_falls_through_to_on_receive(engine, registered,
                                                         monkeypatch):
    name = registered("loud_majority_test", lambda scenario, index, env:
                      LoudMajorityUrb(env, scenario.n_processes))
    handed: Counter = Counter()
    on_receive = AnonymousProcess.on_receive

    def counting(process, payload):
        handed[type(payload)] += 1
        on_receive(process, payload)

    # Patched on the class the table checks against, so the tables are
    # still made: only what misses them is counted.
    monkeypatch.setattr(AnonymousProcess, "on_receive", counting)
    built = _built(name, engine)
    result = built.run()
    assert set(handed) == {LoudMsg} and handed[LoudMsg] > 0
    assert all(result.deliveries_of(index) for index in range(4))
    assert result.execution.dispatch_mode == \
        ("batched" if engine == "vectorized" else "per-event")


@pytest.mark.parametrize("engine", ENGINES)
def test_an_unknown_payload_still_raises(engine, registered):
    name = registered("garbage_sender_test", lambda scenario, index, env:
                      GarbageSender(env, scenario.n_processes))
    with pytest.raises(TypeError, match="unsupported payload 'garbage'"):
        _built(name, engine).run()
