"""The time-bucketed ``EventQueue`` against a ``heapq`` model.

Random interleavings of ``schedule`` (a bad time among them),
``schedule_receives`` (dropped copies among them; its times are never
before the last popped one, as the engine guarantees), ``pop``, ``peek``
and ``claim_seqs`` run on the queue and on a binary heap of the same
tuples.  Times are drawn relative to
the last popped time, so that entries tie, land at the last popped time, in
the bucket being consumed (in its current chunk or in its rest), before a
bucket that ``peek`` moved on to, or at very large finite times.  Small
``_SPLIT`` and ``_CHUNK`` values make the queue re-derive its scale (both
ways) and split its consumed bucket often.  Every operation must return,
raise and leave behind exactly what the model does.
"""

import heapq
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import scheduler
from repro.simulation.events import EventKind
from repro.simulation.scheduler import EventQueue, SchedulingError

KINDS = list(EventKind)
HUGE = (1e300, 1.7e308, math.inf)


class HeapModel:
    """The queue's contract, written the obvious way."""

    def __init__(self) -> None:
        self.heap: list = []
        self.pending = [0] * len(EventKind)
        self.last_popped_time = 0.0
        self.next_seq = 0

    def check_time(self, time):
        if not time >= self.last_popped_time:
            raise (ValueError if time < 0.0 else SchedulingError)()

    def schedule(self, time, kind, target):
        self.check_time(time)
        if target is not None and target < 0:
            raise ValueError
        event = (time, self.next_seq, kind, target, None)
        self.next_seq += 1
        heapq.heappush(self.heap, event)
        self.pending[kind.slot] += 1
        return event

    def schedule_receives(self, copies, payload):
        drops = 0
        for dst, time in enumerate(copies):
            if time is None:
                drops += 1
                continue
            heapq.heappush(self.heap, (time, self.next_seq, EventKind.RECEIVE,
                                       dst, payload))
            self.next_seq += 1
            self.pending[EventKind.RECEIVE.slot] += 1
        return drops

    def pop(self):
        event = heapq.heappop(self.heap)
        self.last_popped_time = event[0]
        self.pending[event[2].slot] -= 1
        return event

    def peek(self):
        return self.heap[0] if self.heap else None

    def claim_seqs(self, count):
        if count < 0:
            raise ValueError
        seq = self.next_seq
        self.next_seq += count
        return seq


#: A time as ``(base, steps)``: *steps* sixteenths of a time unit after the
#: last popped time, or one of the fixed times below.
times = st.one_of(
    st.tuples(st.just("last"), st.integers(-2, 40)),
    st.tuples(st.just("fixed"), st.sampled_from(
        (0.0, -1.0, math.nan) + HUGE)),
)
#: A copy's time: at or after the last popped time, or a very large one.
receive_times = st.one_of(
    st.tuples(st.just("last"), st.integers(0, 40)),
    st.tuples(st.just("at least"), st.sampled_from(HUGE)),
)
ops = st.one_of(
    st.tuples(st.just("schedule"), times, st.sampled_from(KINDS),
              st.sampled_from((None, 0, 3, -1))),
    st.tuples(st.just("receives"),
              st.lists(st.one_of(st.none(), receive_times), max_size=8)),
    st.tuples(st.just("receives"), st.lists(receive_times, max_size=8)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("claim"), st.integers(-1, 3)),
)


def resolve(spec, model):
    base, value = spec
    if base == "fixed":
        return value
    if base == "at least":
        return max(value, model.last_popped_time)
    return model.last_popped_time + value / 16


def outcome(call):
    try:
        return "ok", call()
    except (SchedulingError, ValueError, IndexError) as error:
        return "raised", type(error)


@given(st.sampled_from((2, 8, 64, 1024)), st.sampled_from((1, 3, 128)),
       st.lists(ops, max_size=80))
@settings(max_examples=300, deadline=None)
def test_queue_matches_the_heap_model(split, chunk, program):
    # A small split makes the queue re-derive its scale, and file entries
    # in later buckets, many times in one program; a small chunk leaves
    # most of the consumed bucket in its rest.
    with mock.patch.object(scheduler, "_SPLIT", split), \
            mock.patch.object(scheduler, "_CHUNK", chunk):
        run_against_model(program)


def run_against_model(program):
    queue, model = EventQueue(), HeapModel()
    for op in program:
        name = op[0]
        if name == "schedule":
            time = resolve(op[1], model)
            args = (time, op[2], op[3])
            got = outcome(lambda: queue.schedule(*args))
            want = outcome(lambda: model.schedule(*args))
        elif name == "receives":
            copies = [None if spec is None else resolve(spec, model)
                      for spec in op[1]]
            got = outcome(lambda: queue.schedule_receives(copies, "m"))
            want = outcome(lambda: model.schedule_receives(copies, "m"))
        elif name == "pop":
            got, want = outcome(queue.pop), outcome(model.pop)
        elif name == "peek":
            got, want = outcome(queue.peek), outcome(model.peek)
        else:
            got = outcome(lambda: queue.claim_seqs(op[1]))
            want = outcome(lambda: model.claim_seqs(op[1]))
        assert got == want, op
        assert queue.pending == model.pending
        assert len(queue) == len(model.heap)
        assert queue.last_popped_time == model.last_popped_time
    assert list(queue) == sorted(model.heap)
    drained = [queue.pop() for _ in range(len(queue))]
    assert drained == [model.pop() for _ in range(len(model.heap))]
    assert queue.peek() is None and len(queue) == 0
