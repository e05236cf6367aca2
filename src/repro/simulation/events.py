"""Event taxonomy for the discrete-event simulator.

Every state change in a simulated run is driven by one of a small set of
event kinds.  Events are totally ordered by ``(time, sequence_number)``;
the sequence number is assigned by the scheduler when the event is pushed,
which makes the simulation fully deterministic for a given seed: ties are
broken by insertion order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .simtime import SimTime, validate_time


class EventKind(enum.Enum):
    """The kinds of events the engine knows how to dispatch."""

    #: Dense index of the member (0..len-1), assigned after class creation;
    #: used by the scheduler's O(1) pending counters.
    slot: int

    #: A message (protocol payload) arrives at a process.
    RECEIVE = "receive"
    #: A retransmission round (the paper's Task 1 «repeat forever» loop).
    TICK = "tick"
    #: A process crashes (crash-stop failure model, §II).
    CRASH = "crash"
    #: The application layer invokes ``URB_broadcast`` at a process.
    BROADCAST_REQUEST = "broadcast_request"
    #: Periodic engine self-check (early-stop predicates, bookkeeping).
    ENGINE_CHECK = "engine_check"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    # Members are singletons, so the C-level identity hash is sound;
    # ``Enum.__hash__`` is a Python call, two per ``dispatched[kind] += 1``.
    __hash__ = object.__hash__


# Dense per-kind index used by the scheduler's O(1) pending counters: a
# plain attribute read plus a list index is cheaper than a dict lookup keyed
# by the member on every push/pop.
for _slot, _kind in enumerate(EventKind):
    _kind.slot = _slot
del _slot, _kind


@dataclass(frozen=True, slots=True)
class BroadcastCommand:
    """An application-level broadcast request, produced by a workload.

    Attributes
    ----------
    time:
        Simulated time at which the sender's application layer invokes
        ``URB_broadcast``.
    sender:
        Index of the broadcasting process.
    content:
        The application payload.  Must be hashable (it is stored in protocol
        sets exactly as the paper's ``m``).
    """

    time: SimTime
    sender: int
    content: Any

    def __post_init__(self) -> None:
        validate_time(self.time, name="broadcast time")
        if self.sender < 0:
            raise ValueError("sender index must be non-negative")
        # Contents are placed in sets and dict keys by the protocols; fail
        # early with a clear message rather than deep inside a handler.
        try:
            hash(self.content)
        except TypeError as exc:  # pragma: no cover - defensive
            raise TypeError(
                f"broadcast content must be hashable, got {self.content!r}"
            ) from exc


@dataclass(slots=True)
class EventStats:
    """Lightweight running statistics about dispatched events."""

    dispatched: dict[EventKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in EventKind}
    )

    def count(self, kind: EventKind) -> None:
        """Record one dispatched event of *kind*."""
        self.dispatched[kind] += 1

    @property
    def total(self) -> int:
        """Total number of dispatched events."""
        return sum(self.dispatched.values())

    def as_dict(self) -> dict[str, int]:
        """Return counts keyed by the event-kind value (JSON friendly)."""
        return {kind.value: count for kind, count in self.dispatched.items()}
