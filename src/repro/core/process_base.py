"""Anonymous process skeleton shared by the paper's algorithms.

The paper's processes are anonymous (no identifiers), run the same code, and
interact with the world only through ``broadcast``/``receive`` and the
failure-detector variables.  :class:`AnonymousProcess` fixes that shape: it
owns a tag generator fed from the process-local random stream, dispatches
received payloads to MSG/ACK handlers, and provides the delivery plumbing of
:class:`~repro.core.interfaces.BroadcastProtocol`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .interfaces import BroadcastProtocol, EnvironmentAPI
from .messages import AckPayload, LabeledAckPayload, MsgPayload
from .tags import TagGenerator


class AnonymousProcess(BroadcastProtocol):
    """Base class of the anonymous broadcast protocols.

    Parameters
    ----------
    env:
        The process environment (anonymous broadcast primitive, randomness,
        failure detectors, delivery notification).
    eager_first_broadcast:
        When ``True`` (default), ``urb_broadcast`` immediately performs the
        first Task 1 transmission of the new message instead of waiting for
        the next tick.  This is purely a latency optimisation and is
        equivalent to the tick happening to fire right after the broadcast;
        the paper's Task 1 semantics («repeat forever») are unchanged.
    """

    name = "anonymous-process"

    def __init__(self, env: EnvironmentAPI, *, eager_first_broadcast: bool = True) -> None:
        super().__init__(env)
        self.eager_first_broadcast = eager_first_broadcast
        self._tags: Optional[TagGenerator] = None  # made at the first tag

    # ------------------------------------------------------------------ #
    # receive dispatch
    # ------------------------------------------------------------------ #
    def on_receive(self, payload: Any) -> None:
        """Dispatch a received payload to the MSG or ACK handler.

        Unknown payload types raise: in the paper's model channels never
        create messages, so receiving something the protocol never sent is
        a wiring bug worth failing loudly on.
        """
        if isinstance(payload, MsgPayload):
            self._on_msg(payload)
        elif isinstance(payload, (AckPayload, LabeledAckPayload)):
            self._on_ack(payload)
        else:
            raise TypeError(
                f"{type(self).__name__} received unsupported payload "
                f"{payload!r}"
            )

    def receive_table(self) -> dict[type, Callable[[Any], None]]:
        """MSG / ACK handlers, unless :meth:`on_receive` is replaced."""
        if getattr(self.on_receive, "__func__", None) is not AnonymousProcess.on_receive:
            return {}
        on_ack = self._on_ack
        return {MsgPayload: self._on_msg, AckPayload: on_ack,
                LabeledAckPayload: on_ack}

    def _on_msg(self, payload: MsgPayload) -> None:
        """Handle a ``(MSG, m, tag)`` reception.  Overridden by protocols."""
        raise NotImplementedError

    def _on_ack(self, payload: Any) -> None:
        """Handle an ``ACK`` reception.  Overridden by protocols."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # helpers shared by the concrete protocols
    # ------------------------------------------------------------------ #
    def _new_tag(self) -> int:
        """Draw a fresh random tag from the process-local stream."""
        return (self._tags or self.tag_generator).next()

    @property
    def tag_generator(self) -> TagGenerator:
        """The process's tag generator (exposed for tests and analysis)."""
        if self._tags is None:
            self._tags = TagGenerator(self.env.random)
        return self._tags
