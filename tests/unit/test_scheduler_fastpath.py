"""Unit tests for the event queue's hot-path machinery: the entry pool,
lazy deletion, and the O(1) pending-count bookkeeping."""

import pytest

from repro.simulation.events import EventKind
from repro.simulation.scheduler import EventQueue, QueuedEvent, SchedulingError


class TestEventPool:
    def test_recycled_entries_are_reused(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK, target=0)
        entry = queue.pop()
        queue.recycle(entry)
        assert queue.pool_size == 1
        again = queue.schedule(2.0, EventKind.RECEIVE, target=3, payload="m")
        assert again is entry  # same object, re-initialised
        assert again.kind is EventKind.RECEIVE
        assert again.target == 3
        assert again.payload == "m"
        assert queue.pool_size == 0

    def test_recycle_clears_payload_reference(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.RECEIVE, target=0, payload={"big": "obj"})
        entry = queue.pop()
        queue.recycle(entry)
        assert entry.payload is None

    def test_unrecycled_entries_stay_valid(self):
        """Callers that never recycle (tests, analysis) keep valid events."""
        queue = EventQueue()
        for target in range(5):
            queue.schedule(1.0, EventKind.TICK, target=target)
        popped = [queue.pop() for _ in range(5)]
        assert [e.target for e in popped] == list(range(5))

    def test_steady_state_allocates_no_new_entries(self):
        queue = EventQueue()
        queue.schedule(0.0, EventKind.TICK, target=0)
        seen = set()
        for i in range(100):
            entry = queue.pop()
            queue.recycle(entry)
            seen.add(id(entry))
            queue.schedule(float(i + 1), EventKind.TICK, target=0)
        assert len(seen) == 1  # one pooled entry services the whole loop


class TestLazyDeletion:
    def test_drop_pending_marks_dead_without_rebuilding(self):
        queue = EventQueue()
        for i in range(10):
            queue.schedule(float(i), EventKind.TICK, target=i)
        queue.schedule(3.5, EventKind.RECEIVE, target=0, payload="x")
        removed = queue.drop_pending(EventKind.TICK)
        assert removed == 10
        assert len(queue) == 1
        assert queue.dead_count == 10
        event = queue.pop()
        assert event.kind is EventKind.RECEIVE
        assert not queue

    def test_dead_entries_skipped_by_peek(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK, target=0)
        queue.schedule(2.0, EventKind.RECEIVE, target=1)
        queue.drop_pending(EventKind.TICK)
        assert queue.peek().kind is EventKind.RECEIVE
        assert queue.peek_time() == 2.0

    def test_iteration_skips_dead_entries(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.RECEIVE, target=0)
        queue.drop_pending(EventKind.TICK)
        assert [e.kind for e in queue] == [EventKind.RECEIVE]

    def test_compaction_after_mass_deletion(self):
        queue = EventQueue()
        for i in range(3000):
            queue.schedule(float(i), EventKind.TICK, target=0)
        queue.schedule(0.5, EventKind.RECEIVE, target=0)
        removed = queue.drop_pending(EventKind.TICK)
        assert removed == 3000
        # Dead entries outnumber live ones beyond the threshold, so the
        # heap is physically compacted.
        assert queue.dead_count == 0
        assert len(queue) == 1
        assert queue.pop().kind is EventKind.RECEIVE


class TestPendingCounts:
    def test_counts_track_schedule_pop_and_drop(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(2.0, EventKind.RECEIVE, target=0)
        assert queue.pending_of(EventKind.TICK) == 2
        assert queue.pending_of(EventKind.RECEIVE) == 1
        queue.pop()
        assert queue.pending_of(EventKind.TICK) == 1
        queue.drop_pending(EventKind.TICK)
        assert queue.pending_of(EventKind.TICK) == 0
        assert queue.pending_of(EventKind.RECEIVE) == 1

    def test_pending_by_kind_covers_all_kinds(self):
        queue = EventQueue()
        counts = queue.pending_by_kind()
        assert set(counts) == set(EventKind)
        assert all(v == 0 for v in counts.values())

    def test_schedule_updates_counts(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.CRASH, target=1)
        assert queue.pending_of(EventKind.CRASH) == 1
        assert queue.pending_by_kind()[EventKind.CRASH] == 1


class TestQueuedEventSurface:
    def test_exposes_event_like_attributes(self):
        queue = EventQueue()
        entry = queue.schedule(1.5, EventKind.RECEIVE, target=2, payload="p")
        assert isinstance(entry, QueuedEvent)
        assert entry.sort_key == (1.5, 0)
        assert "receive" in entry.describe()
        assert "p[2]" in entry.describe()

    def test_ordering(self):
        a = QueuedEvent(1.0, 0, EventKind.TICK, None, None)
        b = QueuedEvent(1.0, 1, EventKind.TICK, None, None)
        c = QueuedEvent(2.0, 0, EventKind.TICK, None, None)
        assert a < b < c

    def test_schedule_still_rejects_past_and_negative(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.TICK)
        queue.pop()
        with pytest.raises(SchedulingError):
            queue.schedule(4.0, EventKind.TICK)
        with pytest.raises(ValueError):
            queue.schedule(-1.0, EventKind.TICK)
        with pytest.raises(ValueError):
            queue.schedule(6.0, EventKind.TICK, target=-2)
