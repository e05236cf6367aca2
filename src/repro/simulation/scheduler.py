"""Time-bucketed event queue used by the simulation engine.

The queue enforces two invariants that the rest of the simulator relies on:

* *Monotonicity* — events are popped in non-decreasing time order and an
  event can never be scheduled in the past relative to the last popped time
  (:meth:`EventQueue.schedule` checks; the engine checks a broadcast's).
* *Determinism* — events scheduled for the same instant are popped in the
  order they were pushed (FIFO tie-break via a monotonically increasing
  sequence counter).

An entry is the plain tuple ``(time, seq, kind, target, payload)``:
``time`` is when the event fires; ``seq`` breaks ties (scheduled earlier,
fired earlier) and is unique, so comparing entries never reaches ``kind``;
``target`` is the index of the process addressed, or ``None`` for
engine-level events; ``payload`` is the protocol payload of a ``RECEIVE``,
the application content of a ``BROADCAST_REQUEST``.  An entry is built
once and never mutated, so whoever pops one may keep it.

Entries are filed by bucket, ``time * scale // 1.0``, never decreasing in
time: later buckets are unsorted lists, their indices in a heap; the one
being consumed is sorted when reached, and the engine's loop pops it from
:attr:`EventQueue.current`, a chunk of it at a time.  The scale is derived
from the front of the queue (see DESIGN.md §8.1).
"""

from __future__ import annotations

from bisect import bisect, insort
from heapq import heappop, heappush
from itertools import groupby
from operator import itemgetter
from typing import Any, Iterator, Optional, Sequence

from .events import EventKind
from .simtime import SimTime

#: One scheduled event: ``(time, seq, kind, target, payload)``.
Event = tuple[SimTime, int, EventKind, Optional[int], Any]

_RECEIVE = EventKind.RECEIVE
_FAR = float("inf")  # the bucket of a time whose ``time * scale`` overflows
_SPLIT = 1024  # front entries that set the width; least consumed-bucket limit
_CHUNK = 128  # most entries ``current`` takes from the consumed bucket


class SchedulingError(RuntimeError):
    """Raised when an event would violate the scheduler's invariants."""


def reject_time(time: SimTime, floor: SimTime) -> None:
    """Raise for a *time* that is not ``>= floor``, the current time."""
    if time < 0.0:
        raise ValueError(f"scheduled time must be non-negative, got {time}")
    raise SchedulingError(  # in the past, or NaN
        f"cannot schedule event at t={time} before current simulation "
        f"time t={floor}")


class EventQueue:
    """A deterministic priority queue of simulation events.

    The queue assigns sequence numbers itself; callers provide only the time,
    kind, target and payload.
    """

    def __init__(self) -> None:
        #: The next entries to pop, in order (always this one list); then
        #: the consumed bucket's other entries, in order, and its index.
        self.current: list[Event] = []
        self._rest: list[Event] = []
        self._bucket = 0.0
        #: Pending events per kind, indexed by ``EventKind.slot``.
        self.pending: list[int] = [0] * len(EventKind)
        #: Time of the last popped event: nothing is scheduled before it.
        self.last_popped_time: SimTime = 0.0
        self._next_seq: int = 0
        self._scale = 0.0  # one bucket until the first rescale
        #: Re-derive the scale when the consumed bucket passes the limit or
        #: the buckets reached run thin (under 4 entries each).
        self._limit = _SPLIT
        self._thin = 0
        #: Inserts that may go straight into ``current``: only while the
        #: scale is 0 and every entry is in it, and never past the limit.
        self._room = _SPLIT
        #: Later buckets by index, unsorted, and their indices as a heap.
        self._later: dict[float, list[Event]] = {}
        self._indices: list[float] = []

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        time: SimTime,
        kind: EventKind,
        target: Optional[int] = None,
        payload: Any = None,
    ) -> Event:
        """Create, enqueue and return an event.

        Raises
        ------
        SchedulingError
            If *time* precedes the time of the last popped event (scheduling
            into the past would break causality) or is NaN.
        ValueError
            If *time* or *target* is negative.
        """
        if not time >= self.last_popped_time:  # also catches NaN
            reject_time(time, self.last_popped_time)
        if target is not None and target < 0:
            raise ValueError("event target must be a non-negative index")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = (time, seq, kind, target, payload)
        self.pending[kind.slot] += 1
        if self._room:  # one bucket, all in current: no test to make
            self._room -= 1
            insort(self.current, event)
        elif (bucket := time * self._scale // 1.0) <= self._bucket:
            # Its seq is the largest: it precedes the consumed bucket's rest
            # only if its time does.
            rest = self._rest
            into = rest if rest and rest[0] < event else self.current
            insort(into, event)
            if len(into) > self._limit:
                self._rescale()
            elif not (self._scale or self._rest or self._later):
                self._room = self._limit - len(self.current)
        elif (later := self._later.get(bucket)) is not None:
            later.append(event)
        else:
            self._file(event, bucket)
        return event

    def schedule_receives(
        self, times: Sequence[Optional[SimTime]], payload: Any
    ) -> int:
        """Enqueue the ``RECEIVE`` of every delivered copy of one broadcast.

        *times* are the broadcast's fates, each destination's delivery time
        by position (``None`` = dropped, nothing enqueued); the delivered
        ones get the seqs one :meth:`schedule` call each, in that order,
        would have given them.  They are not checked: a channel delivers
        after now, and the engine checks a controller's decision.
        Returns the number of dropped copies.
        """
        scale = self._scale
        consumed = self._bucket
        get = self._later.get
        current = self.current
        rest = self._rest
        room = self._room
        first = seq = self._next_seq
        for dst, time in enumerate(times):
            if time is None:
                continue
            event = (time, seq, _RECEIVE, dst, payload)
            seq += 1
            if room:
                room -= 1
                insort(current, event)
            elif (bucket := time * scale // 1.0) <= consumed:
                insort(rest if rest and rest[0] < event else current, event)
            elif (later := get(bucket)) is not None:
                later.append(event)
            else:
                self._file(event, bucket)
        self._next_seq = seq
        self.pending[_RECEIVE.slot] += seq - first
        self._room = room
        if len(current) > self._limit:
            self._rescale()
        return len(times) - (seq - first)

    def _file(self, event: Event, bucket: float) -> None:
        """File *event* in a new later bucket; a NaN *bucket* means that
        ``time * scale`` overflowed, and ``_FAR`` may be the consumed one."""
        if bucket != bucket:
            bucket = _FAR
        if bucket <= self._bucket:
            rest = self._rest
            insort(rest if rest and rest[0] < event else self.current,
                   event)
            return
        later = self._later.setdefault(bucket, [])
        if not later:
            heappush(self._indices, bucket)
            self._room = 0
        later.append(event)

    def _entries(self) -> list[Event]:
        """Every queued entry: the consumed bucket's first, in order."""
        return self.current + self._rest + [
            event for later in self._later.values() for event in later]

    def _rescale(self) -> None:
        """Re-file every entry in buckets 1/32 as wide as the span of the
        queue's first ``_SPLIT`` entries (counted from the last of its first
        time), and let the limit be twice the consumed bucket's size."""
        events = sorted(self._entries(), key=itemgetter(0))  # by time only
        lo = bisect(events, (events[0][0], _FAR)) - 1
        hi = min(len(events), lo + _SPLIT) - 1
        span = events[hi][0] - events[lo][0]
        if 0.0 < span < _FAR and (hi - lo) / 32 / span < _FAR:
            self._scale = (hi - lo) / 32 / span
        scale = self._scale
        groups = groupby(events, lambda event: bucket if (
            bucket := event[0] * scale // 1.0) == bucket else _FAR)
        buckets = [(bucket, list(group)) for bucket, group in groups]
        (self._bucket, events), *later = buckets
        events.sort()
        self._later = dict(later)
        self._indices = [bucket for bucket, _ in later]  # sorted: a heap
        self.current[:] = events[:_CHUNK]
        self._rest = events[_CHUNK:]
        self._limit = max(_SPLIT, 2 * len(events))
        self._thin = 0
        self._room = 0

    def claim_seqs(self, count: int) -> int:
        """Reserve *count* consecutive sequence numbers and return the first.

        Used by batching engine backends (see
        :mod:`repro.simulation.vectorized`) that keep delivery events outside
        the queue: claiming the numbers through the queue's counter keeps
        batched events on the same global ``(time, seq)`` total order as
        queued ticks/checks, which is exactly the reference engine's
        dispatch order.
        """
        if count < 0:
            raise ValueError("cannot claim a negative number of seqs")
        seq = self._next_seq
        self._next_seq = seq + count
        return seq

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #
    def refill(self) -> list[Event]:
        """Return :attr:`current`, refilled in place when empty from the
        consumed bucket or else the next one (still empty: no events).
        Buckets that hold under 4 entries on average re-derive the scale."""
        current = self.current
        if not current and (self._rest or self._indices):
            rest = self._rest
            if not rest:
                self._bucket = bucket = heappop(self._indices)
                self._rest = rest = self._later.pop(bucket)
                rest.sort()
                thin = self._thin + 4 - len(rest)
                self._thin = thin if thin > 0 else 0
            if len(rest) > self._limit or self._thin > _SPLIT:
                self._rescale()
                rest = self._rest
            current += rest[:_CHUNK]
            del rest[:_CHUNK]
        return current

    def pop(self) -> Event:
        """Pop and return the earliest event.

        The engine's loop inlines this (``current.pop(0)`` after a
        :meth:`refill` when ``current`` is empty), booking the rest before
        each event that is not a ``RECEIVE`` and when it ends.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        event = (self.current or self.refill()).pop(0)
        self.last_popped_time = event[0]
        self.pending[event[2].slot] -= 1
        return event

    def peek(self) -> Optional[Event]:
        """Return (without removing) the earliest event, or ``None``."""
        current = self.current or self.refill()
        return current[0] if current else None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(self.pending)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over pending events in time order (non-destructive)."""
        return iter(sorted(self._entries()))

    def pending_of(self, kind: EventKind) -> int:
        """Number of pending events of *kind* (O(1))."""
        return self.pending[kind.slot]
