"""Unit tests for the event queue's hot-path machinery: the O(1)
pending-count bookkeeping, sequence-number claims, and the bulk push of one
broadcast's receive events (and the engine's check of the one kind of fate
that can lie in the past, a controller's decision)."""

import math
from unittest import mock

import pytest

from repro.core.baselines import BestEffortBroadcastProcess
from repro.network import FairLossyChannelFactory, Network
from repro.simulation import scheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import EventKind
from repro.simulation.rng import RandomSource
from repro.simulation.scheduler import EventQueue, SchedulingError

RECEIVE = EventKind.RECEIVE


def _engine_deciding(times):
    """An engine, not yet run, whose controller fates the copies of a
    broadcast with *times*, absolute, by destination."""

    class Deciding:
        def copy_decision(self, engine, src, dst, payload, key, now):
            return times[dst]

    n = len(times)
    return SimulationEngine(
        SimulationConfig(n_processes=n),
        Network(n, FairLossyChannelFactory(), RandomSource(0)),
        lambda index, env: BestEffortBroadcastProcess(env),
        controller=Deciding(),
    )


class TestPendingCounts:
    def test_counts_track_schedule_and_pop(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(1.0, EventKind.TICK)
        queue.schedule(2.0, RECEIVE, target=0)
        assert queue.pending_of(EventKind.TICK) == 2
        assert queue.pending_of(RECEIVE) == 1
        queue.pop()
        assert queue.pending_of(EventKind.TICK) == 1
        queue.pop()
        queue.pop()
        assert [queue.pending_of(kind) for kind in EventKind] == [0] * 5

    def test_schedule_updates_counts(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.CRASH, target=1)
        assert queue.pending_of(EventKind.CRASH) == 1
        assert queue.pending_of(RECEIVE) == 0


class TestClaimSeqs:
    def test_claims_interleave_with_schedule(self):
        queue = EventQueue()
        assert queue.schedule(1.0, EventKind.TICK)[1] == 0
        assert queue.claim_seqs(3) == 1
        assert queue.schedule(1.0, EventKind.TICK)[1] == 4
        assert queue.claim_seqs(0) == 5
        assert queue.schedule_receives([2.0, None, 2.0], "m") == 1
        assert queue.claim_seqs(1) == 7
        # Claimed numbers never enter the queue.
        assert [event[1] for event in queue] == [0, 4, 5, 6]

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            EventQueue().claim_seqs(-1)


class TestScheduleReceives:
    COPIES = [3.0, None, 1.5, None, 3.0, 0.5]

    def test_assigns_the_seqs_per_copy_schedule_calls_assign(self):
        bulk, single = EventQueue(), EventQueue()
        for queue in (bulk, single):
            queue.schedule(0.25, EventKind.TICK, target=0)
        drops = bulk.schedule_receives(self.COPIES, "m")
        for dst, time in enumerate(self.COPIES):
            if time is not None:
                single.schedule(time, RECEIVE, target=dst, payload="m")
        assert drops == 2
        assert list(bulk) == list(single)
        assert bulk.pending == single.pending
        assert bulk.pending_of(RECEIVE) == 4
        assert bulk.claim_seqs(0) == single.claim_seqs(0) == 5
        drained = [bulk.pop() for _ in range(5)]
        assert drained == [single.pop() for _ in range(5)]
        assert drained == [
            (0.25, 0, EventKind.TICK, 0, None),
            (0.5, 4, RECEIVE, 5, "m"),
            (1.5, 2, RECEIVE, 2, "m"),
            (3.0, 1, RECEIVE, 0, "m"),
            (3.0, 3, RECEIVE, 4, "m"),
        ]

    def test_all_dropped_or_empty_broadcast_enqueues_nothing(self):
        queue = EventQueue()
        assert queue.schedule_receives([None, None], "m") == 2
        assert queue.schedule_receives([], "m") == 0
        assert len(queue) == 0 and queue.claim_seqs(0) == 0

    @pytest.mark.parametrize("bad", [1.0, float("nan")], ids=["past", "nan"])
    def test_decision_in_the_past_keeps_the_earlier_copies(self, bad):
        # Only a controller's decision can lie in the past: the engine checks
        # it where it enters and books the copies before it (the queue
        # takes the times it is given).
        engine = _engine_deciding([2.5, None, 2.0, bad, 9.0])
        queue = engine.queue
        queue.schedule(2.0, EventKind.TICK)
        queue.pop()
        engine._now = 2.0
        with pytest.raises(SchedulingError):
            engine.broadcast_from(0, "m")
        # The two copies before the bad one are queued and counted, with
        # their seqs; the one after it never got one.
        assert list(queue) == [(2.0, 2, RECEIVE, 2, "m"),
                               (2.5, 1, RECEIVE, 0, "m")]
        assert queue.pending_of(RECEIVE) == len(queue) == 2
        assert queue.claim_seqs(0) == 3

    def test_copies_at_the_current_time_are_accepted(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.TICK)
        queue.pop()
        assert queue.schedule_receives([2.0], "m") == 0
        assert queue.pop() == (2.0, 1, RECEIVE, 0, "m")


class TestBuckets:
    def test_times_whose_bucket_overflows_keep_their_order(self):
        with mock.patch.object(scheduler, "_SPLIT", 2):
            queue = EventQueue()
            for time in (0.0, 0.01, 0.02):  # the third re-derives the scale
                queue.schedule(time, EventKind.TICK)
            assert queue._scale > 1.0
            queue.schedule(1.7e308, EventKind.TICK)  # time * scale overflows
            queue.schedule(math.inf, EventKind.TICK)
            assert [queue.pop()[0] for _ in range(4)] == [0.0, 0.01, 0.02,
                                                          1.7e308]
            # Scheduled while the overflow bucket is being consumed.
            queue.schedule(1.7e308, EventKind.TICK)
            assert [queue.pop()[:2] for _ in range(2)] == [(1.7e308, 5),
                                                           (math.inf, 4)]

    def test_a_later_bucket_is_sorted_when_reached(self):
        with mock.patch.object(scheduler, "_SPLIT", 3):
            queue = EventQueue()
            for time in (0.0, 0.01, 0.02, 0.03):  # the fourth re-derives it
                queue.schedule(time, EventKind.TICK)
            # One later bucket, filled latest first, and not so large that
            # reaching it re-derives the scale.
            for time in (9.02, 9.01, 9.0):
                queue.schedule(time, EventKind.TICK)
            assert len(queue._later) == 1
            assert [queue.pop()[0] for _ in range(len(queue))] == [
                0.0, 0.01, 0.02, 0.03, 9.0, 9.01, 9.02]

    def test_a_far_entry_does_not_widen_the_buckets(self):
        # A crash far past the traffic: the width comes from the front.
        with mock.patch.object(scheduler, "_SPLIT", 8):
            queue = EventQueue()
            queue.schedule(1000.0, EventKind.CRASH, target=0)
            for step in range(8):
                queue.schedule(step / 100, EventKind.TICK)
            assert 0.0 < 1 / queue._scale < 1.0
            assert [event[0] for event in queue._later[
                1000.0 * queue._scale // 1.0]] == [1000.0]
            assert [queue.pop()[0] for _ in range(9)][-2:] == [0.07, 1000.0]

    def test_one_time_pops_in_chunks_and_in_seq_order(self):
        # Entries that share one time cannot be split by any width: the
        # limit doubles, and the loop pops chunks of them.
        with mock.patch.object(scheduler, "_SPLIT", 4), \
                mock.patch.object(scheduler, "_CHUNK", 2):
            queue = EventQueue()
            for target in range(9):
                queue.schedule(1.0, RECEIVE, target=target)
            assert queue._scale == 0.0 and queue._limit > 4
            assert len(queue.current) == 2 and len(queue._rest) == 7
            popped = [queue.pop()[3] for _ in range(3)]
            queue.schedule(1.0, RECEIVE, target=9)  # after the whole group
            popped += [queue.pop()[3] for _ in range(len(queue))]
            assert popped == list(range(10))
