"""Unit tests for the event taxonomy and the event queue."""

import pytest

from repro.simulation.events import BroadcastCommand, EventKind, EventStats
from repro.simulation.scheduler import EventQueue, SchedulingError


class TestScheduledEvent:
    def test_ordering_by_time_then_seq(self):
        queue = EventQueue()
        late = queue.schedule(2.0, EventKind.TICK, target=0)
        first = queue.schedule(1.0, EventKind.TICK, target=0)
        second = queue.schedule(1.0, EventKind.TICK, target=0)
        assert first < second < late
        assert [first.sort_key, second.sort_key] == [(1.0, 1), (1.0, 2)]
        assert [queue.pop() for _ in range(3)] == [first, second, late]

    def test_describe_mentions_kind_and_target(self):
        event = EventQueue().schedule(1.0, EventKind.RECEIVE, target=3)
        assert "receive" in event.describe()
        assert "p[3]" in event.describe()

    def test_describe_engine_event(self):
        event = EventQueue().schedule(1.0, EventKind.ENGINE_CHECK)
        assert "engine" in event.describe()


class TestBroadcastCommand:
    def test_valid_command(self):
        command = BroadcastCommand(time=1.0, sender=2, content="m")
        assert command.content == "m"

    def test_rejects_negative_sender(self):
        with pytest.raises(ValueError):
            BroadcastCommand(time=0.0, sender=-1, content="m")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            BroadcastCommand(time=-1.0, sender=0, content="m")

    def test_rejects_unhashable_content(self):
        with pytest.raises(TypeError):
            BroadcastCommand(time=0.0, sender=0, content=["not", "hashable"])


class TestEventStats:
    def test_counts_accumulate(self):
        stats = EventStats()
        stats.count(EventKind.TICK)
        stats.count(EventKind.TICK)
        stats.count(EventKind.RECEIVE)
        assert stats.dispatched[EventKind.TICK] == 2
        assert stats.total == 3

    def test_as_dict_uses_string_keys(self):
        stats = EventStats()
        stats.count(EventKind.CRASH)
        assert stats.as_dict()["crash"] == 1


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.schedule(3.0, EventKind.TICK, target=0)
        queue.schedule(1.0, EventKind.TICK, target=1)
        queue.schedule(2.0, EventKind.TICK, target=2)
        targets = [queue.pop().target for _ in range(3)]
        assert targets == [1, 2, 0]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        for target in range(5):
            queue.schedule(1.0, EventKind.TICK, target=target)
        assert [queue.pop().target for _ in range(5)] == list(range(5))

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.schedule(1.0, EventKind.TICK)
        assert queue
        assert len(queue) == 1

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK, target=7)
        assert queue.peek().target == 7
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(4.5, EventKind.TICK)
        assert queue.peek_time() == 4.5

    def test_cannot_schedule_into_past(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.TICK)
        queue.pop()
        with pytest.raises(SchedulingError):
            queue.schedule(4.0, EventKind.TICK)

    def test_can_schedule_at_current_time(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.TICK)
        queue.pop()
        event = queue.schedule(5.0, EventKind.TICK)
        assert event.time == 5.0

    def test_current_time_tracks_pops(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.TICK)
        assert queue.current_time == 0.0
        queue.pop()
        assert queue.current_time == 2.0

    def test_counters(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(2.0, EventKind.TICK)
        queue.pop()
        assert queue.pushed_count == 2
        assert queue.popped_count == 1

    def test_pending_by_kind(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.RECEIVE, target=0, payload="x")
        pending = queue.pending_by_kind()
        assert pending[EventKind.TICK] == 1
        assert pending[EventKind.RECEIVE] == 1
        assert pending[EventKind.CRASH] == 0

    def test_drop_pending_removes_only_kind(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.RECEIVE, target=0)
        removed = queue.drop_pending(EventKind.TICK)
        assert removed == 2
        assert len(queue) == 1
        assert queue.peek().kind is EventKind.RECEIVE

    def test_iteration_is_sorted_and_non_destructive(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.TICK)
        times = [event.time for event in queue]
        assert times == [1.0, 2.0]
        assert len(queue) == 2
