"""Unit tests for the event taxonomy and the event queue."""

import pytest

from repro.simulation.events import BroadcastCommand, EventKind, EventStats
from repro.simulation.scheduler import EventQueue, SchedulingError


class TestHeapEntry:
    def test_ordering_by_time_then_seq(self):
        queue = EventQueue()
        late = queue.schedule(2.0, EventKind.TICK, target=0)
        first = queue.schedule(1.0, EventKind.TICK, target=0)
        second = queue.schedule(1.0, EventKind.TICK, target=0)
        assert first < second < late
        assert [first[:2], second[:2]] == [(1.0, 1), (1.0, 2)]
        assert [queue.pop() for _ in range(3)] == [first, second, late]

    def test_entry_is_the_five_field_tuple(self):
        event = EventQueue().schedule(1.5, EventKind.RECEIVE, target=3,
                                      payload="p")
        assert event == (1.5, 0, EventKind.RECEIVE, 3, "p")

    def test_engine_event_has_no_target(self):
        event = EventQueue().schedule(1.0, EventKind.ENGINE_CHECK)
        assert event == (1.0, 0, EventKind.ENGINE_CHECK, None, None)

    def test_comparison_never_reaches_the_kind(self):
        """Equal times with unorderable payloads and kinds still pop in
        seq order: seqs are unique, so the tuple comparison stops there."""
        queue = EventQueue()
        for target, kind in enumerate(EventKind):
            queue.schedule(1.0, kind, target=target, payload={"d": object()})
        assert [queue.pop()[3] for _ in EventKind] == list(range(5))


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
        targets = [queue.pop()[3] for _ in range(3)]
        assert targets == [1, 2, 0]

    def test_fifo_for_equal_times(self):
        queue = EventQueue()
        for target in range(5):
            queue.schedule(1.0, EventKind.TICK, target=target)
        assert [queue.pop()[3] for _ in range(5)] == list(range(5))

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.schedule(1.0, EventKind.TICK)
        assert queue
        assert len(queue) == 1

    def test_pop_from_empty_queue_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_does_not_remove(self):
        queue = EventQueue()
        assert queue.peek() is None
        queue.schedule(1.0, EventKind.TICK, target=7)
        assert queue.peek()[3] == 7
        assert len(queue) == 1

    def test_cannot_schedule_into_past(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.TICK)
        queue.pop()
        with pytest.raises(SchedulingError):
            queue.schedule(4.0, EventKind.TICK)
        assert len(queue) == 0

    def test_cannot_schedule_at_nan(self):
        with pytest.raises(SchedulingError):
            EventQueue().schedule(float("nan"), EventKind.TICK)

    def test_rejects_negative_time_and_target(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1.0, EventKind.TICK)
        with pytest.raises(ValueError):
            queue.schedule(6.0, EventKind.TICK, target=-2)
        assert len(queue) == 0 and queue.pending_of(EventKind.TICK) == 0

    def test_can_schedule_at_current_time(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.TICK)
        queue.pop()
        event = queue.schedule(5.0, EventKind.TICK)
        assert event[0] == 5.0

    def test_last_popped_time_tracks_pops(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.TICK)
        assert queue.last_popped_time == 0.0
        queue.pop()
        assert queue.last_popped_time == 2.0

    def test_pending_of_after_schedule_and_pop(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.RECEIVE, target=0, payload="x")
        assert queue.pending_of(EventKind.TICK) == 1
        assert queue.pending_of(EventKind.RECEIVE) == 1
        assert queue.pending_of(EventKind.CRASH) == 0
        queue.pop()
        assert queue.pending_of(EventKind.TICK) == 0
        assert queue.pending_of(EventKind.RECEIVE) == 1

    def test_iteration_is_sorted_and_non_destructive(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.TICK)
        times = [event[0] for event in queue]
        assert times == [1.0, 2.0]
        assert len(queue) == 2
