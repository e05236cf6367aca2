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
  experiments and analysis can drive them uniformly.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from ..failure_detectors.base import FailureDetectorView
from .delivery import DeliveryLog
from .messages import TaggedMessage

#: Callback invoked with the application content of each URB-delivery.
DeliveryListener = Callable[[Any], None]

#: ``(now) -> (view, valid_until)``: the process's current AΘ view plus the
#: first time at which that view may change (``inf`` for static views).
#: Bound per process by the engine; see ``FailureDetector.view_window``.
ViewWindow = Callable[[float], tuple[FailureDetectorView, float]]


@runtime_checkable
class BatchConsumer(Protocol):
    """Struct-of-arrays receiver of one process, used by the vectorized
    engine's batched delivery path.

    A consumer replaces the per-payload ``on_receive`` dispatch for maximal
    *runs* of channel deliveries between queue events.  The engine hands ACK
    receptions to :meth:`consume_acks` grouped per destination (integer id
    arrays, no boxing) and replays the rare MSG receptions one at a time
    through :meth:`handle_msg` in global run order — MSG handling draws tags
    and broadcasts, so its RNG/sequence consumption must interleave exactly
    as the reference engine's.  The contract is bit-identical observable
    state: delivery logs, protocol state dicts (after :meth:`flush`), and
    the positions at which deliveries fire.  Processes without such a
    receiver get a :class:`BoxedConsumer`.
    """

    #: Whether :meth:`consume_acks` evaluates failure-detector views (the
    #: engine then requires a detector with stable view windows).
    needs_views: bool

    #: ``message -> run position`` of deliveries made by the current run's
    #: ACK phase; the engine clears it after emitting deferred deliveries.
    run_delivered_pos: dict

    def consume_acks(self, pids, positions, times) -> list:
        """Consume one run's ACK receptions addressed to this process.

        ``pids``/``positions``/``times`` are equal-length arrays in run
        order.  Applies all protocol state updates and returns the resulting
        URB-deliveries as ``(run_position, message)`` pairs sorted by
        position (delivery log already appended; trace/metrics emission is
        the engine's job).
        """
        ...

    def handle_msg(self, payload: Any, position: int) -> None:
        """Handle one MSG reception at run position *position* exactly as
        the per-event path would (including its URB-delivered check against
        deliveries made later in the same run)."""
        ...

    def flush(self) -> None:
        """Materialise lazily-maintained protocol state dicts so that
        per-event code (tick handlers, post-run introspection) reads exactly
        what the reference engine would have left there."""
        ...


class BoxedConsumer:
    """The :class:`BatchConsumer` of a run the batched receiver declined.

    The engine replays *every* reception of such a run — ACKs included, a
    generic protocol's ACK handler may draw randomness or broadcast — one at
    a time through :meth:`handle_msg`, which is ``on_receive``.  Deliveries
    reach the engine through the environment as on the per-event path, and
    no protocol state is maintained lazily, so :meth:`consume_acks` is never
    called and :meth:`flush` has nothing to do.
    """

    needs_views = False

    __slots__ = ("_on_receive",)

    def __init__(self, process: "BroadcastProtocol") -> None:
        self._on_receive = process.on_receive

    def handle_msg(self, payload: Any, position: int) -> None:
        self._on_receive(payload)

    def flush(self) -> None:
        pass


@runtime_checkable
class EnvironmentAPI(Protocol):
    """The environment a protocol process runs in (paper §II primitives)."""

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
    # batched receiver (vectorized engine fast path)
    # ------------------------------------------------------------------ #
    def batch_consumer(self, interner: Any,
                       view_window: "ViewWindow") -> Optional["BatchConsumer"]:
        """Return a :class:`BatchConsumer` for this process, or ``None``.

        ``None`` (the default) means the protocol has no batched receiver
        and the engine replays every delivery through :meth:`on_receive`
        (:class:`BoxedConsumer`).  Implementations receive the run-wide
        :class:`~repro.core.state.PayloadInterner` and a per-process
        ``view_window`` callable for AΘ reads.  Protocols whose consumer
        cannot reproduce a configuration exactly (e.g. Algorithm 2 under
        ``strict_equality``) must return ``None`` for it.
        """
        return None

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
