"""Binary-heap event queue used by the simulation engine.

The queue enforces two invariants that the rest of the simulator relies on:

* *Monotonicity* — events are popped in non-decreasing time order and an
  event can never be scheduled in the past relative to the last popped time.
* *Determinism* — events scheduled for the same instant are popped in the
  order they were pushed (FIFO tie-break via a monotonically increasing
  sequence counter).

Hot-path design (see DESIGN.md §Performance):

* The heap stores ``(time, seq, entry)`` tuples, so ``heapq`` orders events
  with C-level tuple comparisons instead of calling a Python ``__lt__`` —
  the single largest cost of the original implementation.  Sequence numbers
  assigned by :meth:`EventQueue.schedule` are unique, so the comparison
  never reaches the entry object.
* Entries are mutable, slotted :class:`QueuedEvent` objects drawn from a
  free list.  The engine returns each entry with :meth:`EventQueue.recycle`
  after dispatching it, so steady-state simulation allocates no event
  objects at all.
* :meth:`EventQueue.drop_pending` uses *lazy deletion*: entries are marked
  dead in place and skipped when they surface, instead of filtering and
  re-heapifying the entire heap.
* Pending-event counts per kind are maintained incrementally, making
  :meth:`EventQueue.pending_by_kind` O(#kinds) instead of O(#pending) —
  the engine's quiescence check reads it on every self-check event.

None of this changes observable ordering: the pop order is still exactly
``(time, seq)``, bit-identical to the original implementation.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Iterator, Optional

from .events import EventKind
from .simtime import SimTime, validate_time

#: Upper bound on the entry free list; beyond this, popped entries are left
#: to the garbage collector (prevents pathological growth after bursts).
_MAX_POOL = 4096

#: Compact the heap when dead entries outnumber live ones past this count.
_COMPACT_THRESHOLD = 1024


class SchedulingError(RuntimeError):
    """Raised when an event would violate the scheduler's invariants."""


class QueuedEvent:
    """A pooled, mutable scheduled event.

    ``time`` is the simulated time at which it fires; ``seq`` the
    scheduler-assigned sequence number that breaks ties (events scheduled
    earlier fire earlier at equal times); ``target`` the index of the
    process it is addressed to, or ``None`` for engine-level events;
    ``payload`` the kind-specific data (the protocol payload for
    ``RECEIVE``, the application content for ``BROADCAST_REQUEST``).
    Entries are reused across schedule/pop cycles by the queue's free
    list, so holders must not retain one after handing it to
    :meth:`EventQueue.recycle`.
    """

    __slots__ = ("time", "seq", "kind", "target", "payload", "alive")

    def __init__(
        self,
        time: SimTime,
        seq: int,
        kind: EventKind,
        target: Optional[int],
        payload: Any,
    ) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.target = target
        self.payload = payload
        self.alive = True

    @property
    def sort_key(self) -> tuple[SimTime, int]:
        """The total-order key used by the scheduler."""
        return (self.time, self.seq)

    def __lt__(self, other: "QueuedEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def describe(self) -> str:
        """Human-readable one-line description (used in debug traces)."""
        target = "engine" if self.target is None else f"p[{self.target}]"
        return f"{self.kind.value}@{self.time:.4f}->{target}"


class EventQueue:
    """A deterministic priority queue of simulation events.

    The queue assigns sequence numbers itself; callers provide only the time,
    kind, target and payload.
    """

    def __init__(self) -> None:
        #: Heap of ``(time, seq, entry)`` tuples (may contain dead entries).
        self._heap: list[tuple[SimTime, int, QueuedEvent]] = []
        self._free: list[QueuedEvent] = []
        self._next_seq: int = 0
        self._last_popped_time: SimTime = 0.0
        self._pushed: int = 0
        self._popped: int = 0
        self._live: int = 0
        self._dead: int = 0
        #: Live pending events per kind, indexed by ``EventKind.slot``.
        self._pending: list[int] = [0] * len(EventKind)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        time: SimTime,
        kind: EventKind,
        target: Optional[int] = None,
        payload: Any = None,
    ) -> QueuedEvent:
        """Create and enqueue an event.

        Raises
        ------
        SchedulingError
            If *time* precedes the time of the last popped event (scheduling
            into the past would break causality).
        """
        if not time >= self._last_popped_time:  # also catches NaN
            if time >= 0.0:
                raise SchedulingError(
                    f"cannot schedule event at t={time} before current "
                    f"simulation time t={self._last_popped_time}"
                )
            validate_time(time, name="scheduled time")
        if target is not None and target < 0:
            raise ValueError("event target must be a non-negative index")
        seq = self._next_seq
        self._next_seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry.time = time
            entry.seq = seq
            entry.kind = kind
            entry.target = target
            entry.payload = payload
            entry.alive = True
        else:
            entry = QueuedEvent(time, seq, kind, target, payload)
        heappush(self._heap, (time, seq, entry))
        self._pushed += 1
        self._live += 1
        self._pending[kind.slot] += 1
        return entry

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
    def pop(self) -> QueuedEvent:
        """Pop and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)[2]
            if entry.alive:
                self._last_popped_time = entry.time
                self._popped += 1
                self._live -= 1
                self._pending[entry.kind.slot] -= 1
                return entry
            self._dead -= 1
            self._retire(entry)
        raise IndexError("pop from an empty EventQueue")

    def _retire(self, entry: QueuedEvent) -> None:
        """Drop an entry's references and pool it for reuse (if room)."""
        if len(self._free) < _MAX_POOL:
            entry.payload = None
            entry.target = None
            self._free.append(entry)

    def recycle(self, entry: QueuedEvent) -> None:
        """Return a popped entry to the free list.

        Only the engine's dispatch loop calls this (immediately after it is
        done with the event); external callers that retain popped events
        simply never recycle them, which is always safe.
        """
        self._retire(entry)

    def peek(self) -> Optional[QueuedEvent]:
        """Return (without removing) the earliest event, or ``None``."""
        self._prune_dead_top()
        heap = self._heap
        return heap[0][2] if heap else None

    def peek_time(self) -> Optional[SimTime]:
        """Return the time of the earliest event, or ``None`` if empty."""
        self._prune_dead_top()
        heap = self._heap
        return heap[0][0] if heap else None

    def _prune_dead_top(self) -> None:
        heap = self._heap
        while heap and not heap[0][2].alive:
            entry = heappop(heap)[2]
            self._dead -= 1
            self._retire(entry)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def __iter__(self) -> Iterator[QueuedEvent]:
        """Iterate over pending live events in time order (non-destructive)."""
        return iter(
            [item[2] for item in sorted(self._heap) if item[2].alive]
        )

    @property
    def current_time(self) -> SimTime:
        """Time of the last popped event (the engine's notion of "now")."""
        return self._last_popped_time

    @property
    def pushed_count(self) -> int:
        """Total number of events ever pushed."""
        return self._pushed

    @property
    def popped_count(self) -> int:
        """Total number of events ever popped."""
        return self._popped

    @property
    def pool_size(self) -> int:
        """Current size of the entry free list (diagnostics/tests)."""
        return len(self._free)

    @property
    def dead_count(self) -> int:
        """Number of lazily-deleted entries still in the heap."""
        return self._dead

    def pending_by_kind(self) -> dict[EventKind, int]:
        """Histogram of pending live events by kind (O(#kinds))."""
        return {kind: self._pending[kind.slot] for kind in EventKind}

    def pending_of(self, kind: EventKind) -> int:
        """Number of pending live events of *kind* (O(1))."""
        return self._pending[kind.slot]

    def drop_pending(self, kind: EventKind) -> int:
        """Lazily remove every pending event of *kind*; return the count.

        Entries are marked dead in place and skipped (and recycled) when
        they reach the top of the heap; the heap is only physically rebuilt
        when dead entries pile up past a threshold.
        """
        removed = 0
        for item in self._heap:
            entry = item[2]
            if entry.alive and entry.kind is kind:
                entry.alive = False
                entry.payload = None
                removed += 1
        if removed:
            self._live -= removed
            self._dead += removed
            self._pending[kind.slot] -= removed
            if self._dead > _COMPACT_THRESHOLD and self._dead > self._live:
                self._compact()
        return removed

    def _compact(self) -> None:
        """Physically drop dead entries (rare; amortised by the threshold)."""
        kept = []
        for item in self._heap:
            if item[2].alive:
                kept.append(item)
            else:
                self._retire(item[2])
        heapify(kept)
        self._heap = kept
        self._dead = 0
