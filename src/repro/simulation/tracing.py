"""Structured trace recording.

A :class:`TraceRecorder` collects a flat, time-ordered list of
:class:`TraceEvent` records describing everything observable about a run:
sends, drops, channel deliveries, URB-deliveries, crashes, broadcasts and
retransmission rounds.  The analysis layer (``repro.analysis``) is written
entirely against traces, which keeps property checking independent from the
protocol implementations being checked.

Storage is a list of positional rows whose layout only this module knows.
Per-copy channel records (over 99 % of a FULL trace) stay bare rows until
a caller asks for them as events, and a broadcast's SEND / DROP records
are one row until a caller reads by position; see :class:`TraceRecorder`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Callable, Iterator, Mapping, Optional

from ..core.messages import payload_kind
from .simtime import SimTime


class TraceLevel(enum.IntEnum):
    """How much a :class:`TraceRecorder` records.

    Levels are cumulative: each level records everything the level below it
    does.  ``FULL`` (the default) reproduces the historic behaviour exactly;
    ``DELIVERIES`` keeps only protocol-level observables (broadcasts,
    deliveries, crashes, retirements) and skips the per-copy channel events
    that dominate trace size; ``OFF`` records nothing (equivalent to
    ``enabled=False``).
    """

    OFF = 0
    DELIVERIES = 1
    FULL = 2


class TraceCategory(enum.Enum):
    """Categories of observable run events.

    Each member carries the minimum :class:`TraceLevel` at which it is
    recorded as a plain attribute (``level``), so the recorder's level gate
    is an attribute read and an int comparison — hashing an enum member is
    a Python-level call.
    """

    level: TraceLevel

    def __new__(cls, value: str, level: TraceLevel) -> "TraceCategory":
        member = object.__new__(cls)
        member._value_ = value
        member.level = level
        return member

    #: The application layer invoked ``URB_broadcast(m)`` at a process.
    URB_BROADCAST = ("urb_broadcast", TraceLevel.DELIVERIES)
    #: A process handed one protocol payload to one directed channel.
    SEND = ("send", TraceLevel.FULL)
    #: The channel dropped the payload (fair lossy behaviour).
    DROP = ("drop", TraceLevel.FULL)
    #: The payload reached the destination process.
    CHANNEL_DELIVER = ("channel_deliver", TraceLevel.FULL)
    #: A process URB-delivered an application message.
    URB_DELIVER = ("urb_deliver", TraceLevel.DELIVERIES)
    #: A process crashed.
    CRASH = ("crash", TraceLevel.DELIVERIES)
    #: A retransmission round executed (possibly sending nothing).
    TICK = ("tick", TraceLevel.FULL)
    #: A process removed a message from its retransmission set (Algorithm 2).
    RETIRE = ("retire", TraceLevel.DELIVERIES)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class _Broadcast:
    """Marks a broadcast row; a class, so it pickles by reference."""


_SEND = TraceCategory.SEND
_DROP = TraceCategory.DROP
#: Records of a category per broadcast row, by its fates.
_COPIES = {_SEND: len, _DROP: methodcaller("count", None)}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One observable event of a simulated run.

    Attributes
    ----------
    time:
        Simulated time of the event.
    category:
        The :class:`TraceCategory`.
    process:
        The index of the process the event concerns.  For channel events
        this is the *source* process; the destination is in ``details``.
    details:
        Category-specific payload (kept as a plain mapping so traces are
        cheap to build and easy to serialise).
    """

    time: SimTime
    category: TraceCategory
    process: int
    details: Mapping[str, Any] = field(default_factory=dict)

    def detail(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``details.get(key, default)``."""
        return self.details.get(key, default)


class TraceRecorder:
    """Accumulates :class:`TraceEvent` records in arrival order.

    The recorder can be disabled (``enabled=False``) for large benchmark
    runs where only aggregate metrics are needed; recording then becomes a
    no-op while counters in :class:`repro.simulation.metrics.MetricsCollector`
    keep working.  The *level* knob (:class:`TraceLevel`) offers a middle
    ground: ``DELIVERIES`` keeps protocol-level observables while skipping
    the per-copy channel events.

    The engine gates its hot-path recording calls on the plain boolean
    attributes ``channel_active`` / ``protocol_active`` so that disabled
    categories cost a single attribute read per event — no keyword-dict
    construction, no method call.

    Every record is one row, a tuple headed ``(time, category, process)``:
    :meth:`record` appends ``(..., event)``, :meth:`record_copy` appends the
    bare fields ``(..., kind, payload, dst)`` of a per-copy channel record.
    A bare row becomes a :class:`TraceEvent` — once, its slot rewritten to
    ``(..., event)`` — only when a caller asks for events (``events``,
    iteration, :meth:`filter`, :meth:`digest`, :meth:`to_dicts`); the
    counting and timing queries read the heads alone.  Rows of the
    protocol-level categories are also kept per category, so queries on
    them cost their matches, not the trace.

    :meth:`record_broadcast` appends one row for a broadcast's SEND / DROP
    records, replaced by their bare rows (:meth:`_expand`) before anything
    reads by position; ``len()``, :meth:`send_runs` and the heads read it.
    """

    def __init__(self, enabled: bool = True,
                 level: TraceLevel = TraceLevel.FULL) -> None:
        self._enabled = bool(enabled)
        self._level = TraceLevel(level)
        self._rows: list[tuple] = []
        #: Whether ``_rows`` holds a broadcast row (see :meth:`_expand`).
        self._packed = False
        self._by_category: dict[TraceCategory, list[tuple]] = {
            category: [] for category in TraceCategory
            if category.level is TraceLevel.DELIVERIES
        }
        #: Run-level metadata (schedule provenance: strategy, seed, decision
        #: hash) written by the engine at the end of a run so serialised
        #: traces carry everything needed to replay them.  Populated even
        #: when event recording is disabled.
        self.header: dict[str, Any] = {}
        #: Fast flags read by the engine before building record() arguments.
        self.channel_active: bool = False
        self.protocol_active: bool = False
        self._refresh_flags()

    def _refresh_flags(self) -> None:
        active = self._enabled and self._level > TraceLevel.OFF
        self.protocol_active = active and self._level >= TraceLevel.DELIVERIES
        self.channel_active = active and self._level >= TraceLevel.FULL

    @property
    def enabled(self) -> bool:
        """Whether the recorder records anything at all."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._refresh_flags()

    @property
    def level(self) -> TraceLevel:
        """The recording level (see :class:`TraceLevel`)."""
        return self._level

    @level.setter
    def level(self, value: TraceLevel) -> None:
        self._level = TraceLevel(value)
        self._refresh_flags()

    def wants(self, category: TraceCategory) -> bool:
        """Whether events of *category* would currently be recorded."""
        return self._enabled and self._level >= category.level

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(
        self,
        time: SimTime,
        category: TraceCategory,
        process: int,
        **details: Any,
    ) -> Optional[TraceEvent]:
        """Append one event (no-op when the recorder is disabled or the
        category is gated out by the recording level)."""
        if not self._enabled or self._level < category.level:
            return None
        event = TraceEvent(time=time, category=category, process=process,
                           details=details)
        row = (time, category, process, event)
        self._rows.append(row)
        if category.level is TraceLevel.DELIVERIES:
            self._by_category[category].append(row)
        return event

    def record_copy(
        self,
        time: SimTime,
        category: TraceCategory,
        process: int,
        kind: Optional[str],
        payload: Any,
        dst: Optional[int] = None,
    ) -> None:
        """Append one per-copy channel record (SEND, DROP or CHANNEL_DELIVER;
        no-op unless ``channel_active``).

        The same event as ``record(time, category, process, dst=dst,
        kind=kind, payload=payload)`` — without ``dst`` when it is ``None``,
        the CHANNEL_DELIVER form — at the price of one tuple.  A ``None``
        *kind* is derived (:func:`payload_kind`) when the row is read.
        """
        if self.channel_active:
            self._rows.append((time, category, process, kind, payload, dst))

    def record_broadcast(
        self,
        time: SimTime,
        process: int,
        kind: str,
        payload: Any,
        times: list[Optional[SimTime]],
    ) -> None:
        """Append the per-copy records of one broadcast (no-op unless
        ``channel_active``): for each destination's delivery time in
        *times*, in order, the :meth:`record_copy` row of its SEND, directly
        followed by that of its DROP when the time is ``None`` — kept as one
        row holding *times*, which the caller must not change afterwards."""
        if self.channel_active and times:
            self._rows.append((time, _Broadcast, process, kind, payload, times))
            self._packed = True

    def _expand(self) -> None:
        """Replace every broadcast row by the bare rows it stands for."""
        rows: list[tuple] = []
        append = rows.append
        for row in self._rows:
            if row[1] is not _Broadcast:
                append(row)
                continue
            time, _, process, kind, payload, times = row
            for dst, deliver_time in enumerate(times):
                append((time, _SEND, process, kind, payload, dst))
                if deliver_time is None:
                    append((time, _DROP, process, kind, payload, dst))
        self._rows = rows
        self._packed = False

    def _weighted(self, category: TraceCategory,
                  reverse: bool = False) -> Iterator[tuple[SimTime, int]]:
        """``(time, records of *category*)`` of each row holding any, in
        recording order (or reversed), broadcast rows left as they are."""
        rows = self._by_category.get(category, self._rows)
        copies = _COPIES.get(category)
        for row in reversed(rows) if reverse else rows:
            if row[1] is category:
                yield row[0], 1
            elif (copies is not None and row[1] is _Broadcast
                    and (count := copies(row[5]))):
                yield row[0], count

    def _event(self, position: int) -> TraceEvent:
        """The event of the record at *position* (built on first request)."""
        if self._packed:
            self._expand()
        row = self._rows[position]
        if len(row) == 4:
            return row[3]
        time, category, process, kind, payload, dst = row
        details = {"kind": kind or payload_kind(payload), "payload": payload}
        if dst is not None:
            details = {"dst": dst, **details}
        event = TraceEvent(time=time, category=category, process=process,
                           details=details)
        self._rows[position] = (time, category, process, event)
        return event

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """All recorded events, in recording order."""
        return tuple(self)

    def __len__(self) -> int:
        rows = self._rows
        return len(rows) + (sum(len(row[5]) + row[5].count(None) - 1
                                for row in rows if row[1] is _Broadcast)
                            if self._packed else 0)

    def __iter__(self) -> Iterator[TraceEvent]:
        if self._packed:
            self._expand()
        return map(self._event, range(len(self._rows)))

    def filter(
        self,
        category: Optional[TraceCategory] = None,
        process: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> list[TraceEvent]:
        """Return events matching the given criteria.

        Parameters
        ----------
        category:
            Keep only events of this category.
        process:
            Keep only events whose ``process`` field equals this index.
        predicate:
            Arbitrary extra filter applied last.
        """
        rows = self._by_category.get(category)
        if rows is not None:
            events = [row[3] for row in rows]
        else:
            if self._packed:
                self._expand()
            events = [
                self._event(position)
                for position, row in enumerate(self._rows)
                if category is None or row[1] is category
            ]
        return [
            event for event in events
            if (process is None or event.process == process)
            and (predicate is None or predicate(event))
        ]

    def sends(self) -> Iterator[tuple[int, Any]]:
        """``(process, payload)`` of every SEND event, in recording order,
        without building an event for any of them."""
        return ((process, payload) for process, payload, copies
                in self.send_runs() for _ in range(copies))

    def send_runs(self) -> Iterator[tuple[int, Any, int]]:
        """``(process, payload, copies)`` per run of SEND records of one
        payload object by one process, records of other categories between
        them not ending it: one broadcast's copies (or adjacent broadcasts')
        in one step, read off the rows."""
        process, payload, copies = None, None, 0
        for row in self._rows:
            if row[1] is _Broadcast:
                this, count = row[4], len(row[5])
            elif row[1] is _SEND:
                this = row[4] if len(row) == 6 else row[3].details.get("payload")
                count = 1
            else:
                continue
            if this is payload and row[2] == process:
                copies += count
                continue
            if copies:
                yield process, payload, copies
            process, payload, copies = row[2], this, count
        if copies:
            yield process, payload, copies

    def count(self, category: TraceCategory) -> int:
        """Number of recorded events of *category*."""
        return sum(count for _, count in self._weighted(category))

    def last_time(self, category: TraceCategory) -> Optional[SimTime]:
        """Time of the last event of *category*, or ``None`` if none."""
        return next((time for time, _ in self._weighted(category, True)),
                    None)

    def first_time(self, category: TraceCategory) -> Optional[SimTime]:
        """Time of the first event of *category*, or ``None`` if none."""
        return next((time for time, _ in self._weighted(category)), None)

    def timeline(self, category: TraceCategory,
                 bucket: float) -> list[tuple[SimTime, int]]:
        """Histogram of *category* events over time.

        Returns a list of ``(bucket_start, count)`` pairs covering the span
        of the trace with buckets of width *bucket*.
        """
        if bucket <= 0:
            raise ValueError("bucket width must be positive")
        selected = list(self._weighted(category))
        if not selected:
            return []
        end = max(t for t, _ in selected)
        n_buckets = int(end // bucket) + 1
        counts = [0] * n_buckets
        for t, count in selected:
            counts[int(t // bucket)] += count
        return [(i * bucket, counts[i]) for i in range(n_buckets)]

    def digest(self) -> str:
        """Stable SHA-256 digest of the recorded trace.

        Two runs are considered bit-identical when their digests match; the
        determinism parity tests compare digests across hot-path
        configurations (see tests/unit/test_determinism_parity.py).
        """
        import hashlib

        h = hashlib.sha256()
        for event in self:
            h.update(
                repr(
                    (
                        event.time,
                        event.category.value,
                        event.process,
                        sorted(event.details.items()),
                    )
                ).encode("utf-8")
            )
        return h.hexdigest()

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serialise the trace as a list of plain dictionaries."""
        return [
            {
                "time": event.time,
                "category": event.category.value,
                "process": event.process,
                **dict(event.details),
            }
            for event in self
        ]
