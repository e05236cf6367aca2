"""Binary-heap event queue used by the simulation engine.

The queue enforces two invariants that the rest of the simulator relies on:

* *Monotonicity* — events are popped in non-decreasing time order and an
  event can never be scheduled in the past relative to the last popped time.
* *Determinism* — events scheduled for the same instant are popped in the
  order they were pushed (FIFO tie-break via a monotonically increasing
  sequence counter).

A heap entry is the plain tuple ``(time, seq, kind, target, payload)``:
``heapq`` orders entries with C-level tuple comparisons, and because the
sequence numbers handed out here are unique the comparison never reaches
``kind``.  ``time`` is the simulated time at which the event fires; ``seq``
the number that breaks ties (scheduled earlier, fired earlier); ``target``
the index of the process addressed, or ``None`` for engine-level events;
``payload`` the kind-specific data (the protocol payload for ``RECEIVE``,
the application content for ``BROADCAST_REQUEST``).  An entry is built once
and never mutated, so whoever pops one may keep it.

The engine's loops pop from :attr:`EventQueue.heap` themselves (see
:meth:`EventQueue.pop` for what a pop must keep up to date); everybody else
goes through the methods.  Pending-event counts per kind are maintained
incrementally — the engine's quiescence check reads two of them on every
self-check event.  See DESIGN.md §8.1.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, Iterator, Optional

from .events import EventKind
from .simtime import SimTime

#: One scheduled event: ``(time, seq, kind, target, payload)``.
Event = tuple[SimTime, int, EventKind, Optional[int], Any]

_RECEIVE = EventKind.RECEIVE


class SchedulingError(RuntimeError):
    """Raised when an event would violate the scheduler's invariants."""


class EventQueue:
    """A deterministic priority queue of simulation events.

    The queue assigns sequence numbers itself; callers provide only the time,
    kind, target and payload.
    """

    def __init__(self) -> None:
        #: The heap of :data:`Event` tuples.
        self.heap: list[Event] = []
        #: Pending events per kind, indexed by ``EventKind.slot``.
        self.pending: list[int] = [0] * len(EventKind)
        #: Time of the last popped event: nothing is scheduled before it.
        self.last_popped_time: SimTime = 0.0
        self._next_seq: int = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _reject_time(self, time: SimTime) -> None:
        """Raise for a *time* that is not ``>= last_popped_time``."""
        if time < 0.0:
            raise ValueError(
                f"scheduled time must be non-negative, got {time}")
        raise SchedulingError(  # in the past, or NaN
            f"cannot schedule event at t={time} before current "
            f"simulation time t={self.last_popped_time}"
        )

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
            self._reject_time(time)
        if target is not None and target < 0:
            raise ValueError("event target must be a non-negative index")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = (time, seq, kind, target, payload)
        heappush(self.heap, event)
        self.pending[kind.slot] += 1
        return event

    def schedule_receives(
        self, copies: Iterable[tuple[int, Optional[SimTime]]], payload: Any
    ) -> int:
        """Enqueue the ``RECEIVE`` of every delivered copy of one broadcast.

        *copies* are the broadcast's ``(dst, deliver_time)`` fates in
        destination order (``None`` = dropped, nothing enqueued); the
        delivered ones get the sequence numbers that one :meth:`schedule`
        call each, in that order, would have given them.  Destinations come
        from the network's own row indices and are not checked again.
        Returns the number of dropped copies.

        Raises
        ------
        SchedulingError
            At the first delivery time in the past (a controller's
            decision); the copies before it stay queued and counted.
        """
        heap = self.heap
        floor = self.last_popped_time
        first = seq = self._next_seq
        drops = 0
        try:
            for dst, time in copies:
                if time is None:
                    drops += 1
                    continue
                if not time >= floor:
                    self._reject_time(time)
                heappush(heap, (time, seq, _RECEIVE, dst, payload))
                seq += 1
        finally:
            self._next_seq = seq
            self.pending[_RECEIVE.slot] += seq - first
        return drops

    def claim_seqs(self, count: int) -> int:
        """Reserve *count* consecutive sequence numbers and return the first.

        Used by batching engine backends (see
        :mod:`repro.simulation.vectorized`) that keep delivery events outside
        the heap: claiming the numbers through the queue's counter keeps
        batched events on the same global ``(time, seq)`` total order as
        heap-scheduled ticks/checks, which is exactly the reference engine's
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
    def pop(self) -> Event:
        """Pop and return the earliest event.

        The engine's loops inline exactly this: ``heappop(heap)``, then
        ``last_popped_time`` and the kind's ``pending`` count.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        event = heappop(self.heap)
        self.last_popped_time = event[0]
        self.pending[event[2].slot] -= 1
        return event

    def peek(self) -> Optional[Event]:
        """Return (without removing) the earliest event, or ``None``."""
        heap = self.heap
        return heap[0] if heap else None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.heap)

    def __iter__(self) -> Iterator[Event]:
        """Iterate over pending events in time order (non-destructive)."""
        return iter(sorted(self.heap))

    def pending_of(self, kind: EventKind) -> int:
        """Number of pending events of *kind* (O(1))."""
        return self.pending[kind.slot]
