"""Public abstractions of the broadcast layer.

Two interfaces decouple the protocol implementations from the simulator:

* :class:`EnvironmentAPI` — the *only* surface protocol code may touch.  It
  mirrors the paper's system model: an anonymous ``broadcast(m)`` primitive,
  a local source of randomness (for tags), the read-only failure-detector
  variables, and delivery notification to the application layer.  Notably it
  does **not** expose the simulation clock, process identifiers, or the
  network topology — anonymity and asynchrony are enforced by construction.
* :class:`BroadcastProtocol` — what every broadcast algorithm (the paper's
  Algorithms 1 and 2, and the baselines) implements so the engine,
  experiments and analysis can drive them uniformly.  Besides the three
  entry points it carries one *declaration* an engine may rely on,
  :attr:`BroadcastProtocol.repeated_ack_is_noop_once_delivered`: the
  protocols state a property of their ACK handler, the engine decides what
  to do with it (the vectorized backend's repeat filter), and a property
  test checks the statement against the handlers themselves.  The two
  paper algorithms also apply it themselves, to every engine's receptions:
  each answers an ACK payload it has settled (one whose reception can
  change nothing) with one set lookup before its bookkeeping, and
  ``tests/property/test_repeat_filter_declaration.py`` re-feeds every
  settled payload through the full handler to check that as well.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, Protocol, runtime_checkable

from ..failure_detectors.base import FailureDetectorView
from .delivery import DeliveryLog
from .messages import TaggedMessage

#: Callback invoked with the application content of each URB-delivery.
DeliveryListener = Callable[[Any], None]


@runtime_checkable
class EnvironmentAPI(Protocol):
    """The environment a protocol process runs in (paper §II primitives).
    Good for its run only: the simulator's holds its engine weakly, and with
    the engine gone every call below raises :class:`ReferenceError`."""

    def broadcast(self, payload: Any) -> None:
        """The paper's ``broadcast(m)``: send *payload* to every process,
        including the caller, over the (possibly lossy) channels."""
        ...

    @property
    def random(self) -> random.Random:
        """Process-local randomness, used for tag generation (``random()``)."""
        ...

    def atheta(self) -> FailureDetectorView:
        """Current value of the read-only AΘ variable ``a_theta_i``."""
        ...

    def apstar(self) -> FailureDetectorView:
        """Current value of the read-only AP\\* variable ``a_p*_i``."""
        ...

    def notify_delivery(self, message: TaggedMessage) -> None:
        """Inform the platform that the process URB-delivered *message*
        (used for tracing/metrics; the process keeps its own log too)."""
        ...

    def notify_retire(self, message: TaggedMessage) -> None:
        """Inform the platform that *message* left the retransmission set
        (Algorithm 2's quiescence step, traced for analysis)."""
        ...


class BroadcastProtocol(abc.ABC):
    """Base class of every broadcast algorithm in the library.

    Subclasses implement the three entry points the engine drives:
    :meth:`urb_broadcast` (application layer), :meth:`on_receive` (channel
    deliveries) and :meth:`on_tick` (the paper's Task 1 retransmission
    round).  The base class owns the delivery log and listener plumbing.
    """

    #: Short name used in reports ("algorithm1", "algorithm2", …).
    name: str = "abstract"

    #: Declares that once the process has URB-delivered ``m``, receiving
    #: again the very ACK payload it last handled for ``(m, tag_ack)``
    #: changes no state, draws no randomness and sends nothing — whatever
    #: other receptions, ticks and broadcasts happened in between.  Both
    #: paper algorithms have the property (their processes re-broadcast the
    #: identical ACK on every MSG reception so fair lossy channels cannot
    #: starve it, hence nearly every ACK received is such a repeat); an
    #: engine may then drop those receptions unseen.  ``False`` promises
    #: nothing and costs nothing.
    repeated_ack_is_noop_once_delivered: bool = False

    def __init__(self, env: EnvironmentAPI) -> None:
        self.env = env
        self._delivery_log = DeliveryLog()
        self._listeners: list[DeliveryListener] = []

    # ------------------------------------------------------------------ #
    # entry points driven by the engine
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def urb_broadcast(self, content: Any) -> None:
        """Application-level broadcast of *content* (paper ``URB_broadcast``)."""

    @abc.abstractmethod
    def on_receive(self, payload: Any) -> None:
        """Handle a payload received from the anonymous network."""

    @abc.abstractmethod
    def on_tick(self) -> None:
        """One round of the paper's Task 1 «repeat forever» loop."""

    def receive_table(self) -> dict[type, Callable[[Any], None]]:
        """``{payload class: bound handler}``, made once a run; an engine
        hands a payload whose class is not in it to :meth:`on_receive`."""
        return {}

    # ------------------------------------------------------------------ #
    # delivery bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def delivery_log(self) -> DeliveryLog:
        """The process's URB-delivery log (order preserved)."""
        return self._delivery_log

    def delivered_contents(self) -> list[Any]:
        """Application contents delivered so far, in delivery order."""
        return self._delivery_log.contents()

    def add_delivery_listener(self, listener: DeliveryListener) -> None:
        """Register a callback invoked with each delivered content."""
        self._listeners.append(listener)

    def _record_delivery(self, message: TaggedMessage) -> None:
        """Record the URB-delivery of *message* and notify listeners.

        Subclasses are responsible for the at-most-once check (their
        ``URB_DELIVERED`` set) *before* calling this.
        """
        self._delivery_log.append(message)
        self.env.notify_delivery(message)
        for listener in self._listeners:
            listener(message.content)

    # ------------------------------------------------------------------ #
    # introspection used by the engine and the analysis layer
    # ------------------------------------------------------------------ #
    @property
    def pending_retransmissions(self) -> int:
        """Number of messages the process still retransmits every tick.

        Zero means the process has no further sending obligations — the
        per-process ingredient of quiescence.  Protocols without a
        retransmission task return 0.
        """
        return 0

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return self.name
