"""Algorithm 1 — Uniform Reliable Broadcast with a correct majority.

Non-quiescent URB in ``AAS_F[t < n/2]`` (paper §III).  The idea:

1. The sender labels each application message with a unique random ``tag``
   and keeps ``(m, tag)`` in its ``MSG`` set; Task 1 re-broadcasts every
   element of ``MSG`` forever (lines 28–32), which together with channel
   fairness guarantees every correct process eventually receives it.
2. On (every) reception of ``(MSG, m, tag)`` a process acknowledges with its
   own unique random ``tag_ack`` — the same one every time (lines 7–17), so
   distinct ``tag_ack`` values identify distinct acknowledgers without
   revealing identities.
3. A process URB-delivers ``m`` once it has collected a **majority** of
   distinct acknowledgements (lines 18–27): a majority of acknowledgers plus
   a majority of correct processes guarantee that at least one *correct*
   process holds ``m`` and will keep re-broadcasting it, so every correct
   process eventually delivers it too — even if the fast deliverer crashes
   immediately (the paper's §III remark).

The algorithm is **not quiescent**: correct processes re-broadcast every
message in ``MSG`` forever (experiment E3 visualises this).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from .interfaces import EnvironmentAPI
from .messages import AckPayload, LabeledAckPayload, MsgPayload, TaggedMessage
from .process_base import AnonymousProcess
from .state import Algorithm1State


class MajorityUrbProcess(AnonymousProcess):
    """One anonymous process running Algorithm 1.

    Parameters
    ----------
    env:
        Process environment.
    n_processes:
        Total number of processes ``n``.  The majority threshold is
        ``⌊n/2⌋ + 1`` distinct acknowledgements («more than n/2 different
        tag_ack»), unless *majority_threshold* overrides it.
    majority_threshold:
        Explicit acknowledgement threshold (used by ablation experiments).
    eager_first_broadcast:
        See :class:`~repro.core.process_base.AnonymousProcess`.
    """

    name = "algorithm1"

    #: A repeated ``tag_ack`` leaves ``ALL_ACK`` alone (``record_ack``) and
    #: ``_on_ack`` returns on it at once, delivered or not.
    repeated_ack_is_noop_once_delivered = True

    def __init__(
        self,
        env: EnvironmentAPI,
        n_processes: int,
        *,
        majority_threshold: Optional[int] = None,
        eager_first_broadcast: bool = True,
    ) -> None:
        super().__init__(env, eager_first_broadcast=eager_first_broadcast)
        if n_processes < 1:
            raise ValueError("n_processes must be positive")
        self.n_processes = n_processes
        if majority_threshold is None:
            majority_threshold = n_processes // 2 + 1
        if majority_threshold < 1:
            raise ValueError("majority_threshold must be positive")
        self.majority_threshold = majority_threshold
        self.state = Algorithm1State()
        #: The ACK built at the first reception of each message, re-sent on
        #: every later one: it holds ``m`` exactly when ``MY_ACK`` does.
        self._last_ack: dict[TaggedMessage, AckPayload] = {}
        #: ACK payloads already handled: their ``tag_ack`` is in ``ALL_ACK``
        #: for good, so receiving one again is a no-op.
        self._settled: set[Union[AckPayload, LabeledAckPayload]] = set()

    # ------------------------------------------------------------------ #
    # URB_broadcast (lines 4-6)
    # ------------------------------------------------------------------ #
    def urb_broadcast(self, content: Any) -> None:
        tag = self._new_tag()                          # line 5
        message = TaggedMessage(content=content, tag=tag)
        self.state.add_message(message)                # line 6
        if self.eager_first_broadcast:
            # First Task 1 transmission performed immediately (latency
            # optimisation; see AnonymousProcess docstring).
            self.env.broadcast(MsgPayload(message))

    # ------------------------------------------------------------------ #
    # receive (MSG, m, tag)  (lines 7-17)
    # ------------------------------------------------------------------ #
    def _on_msg(self, payload: MsgPayload) -> None:
        message = payload.message
        ack = self._last_ack.get(message)
        if ack is None:                                # m not in MY_ACK
            if message not in self.state.msg_set:      # lines 8-10
                self.state.add_message(message)
            ack_tag = self._new_tag()                  # lines 13-16
            self.state.set_my_ack(message, ack_tag)
            ack = self._last_ack[message] = AckPayload(message, ack_tag)
        # Re-broadcasting the *identical* acknowledgement on every reception
        # (lines 11-12 / 16) overcomes message loss on the fair lossy
        # channels; a repeat finds ``m`` already in MSG (never retired here),
        # so lines 8-10 have nothing to do either.
        self.env.broadcast(ack)

    # ------------------------------------------------------------------ #
    # receive (ACK, m, tag, tag_ack)  (lines 18-27)
    # ------------------------------------------------------------------ #
    def _on_ack(self, payload: Union[AckPayload, LabeledAckPayload]) -> None:
        if payload in self._settled:
            return
        self._settled.add(payload)
        message = payload.message
        if not self.state.record_ack(message, payload.ack_tag):  # lines 19-21
            # ALL_ACK only grows here, and every growth is followed by the
            # threshold test: a repeat leaves the count where that test
            # last saw it, so lines 22-26 cannot do anything new.
            return
        if self.state.distinct_ack_count(message) >= self.majority_threshold:
            if not self.state.is_delivered(message):           # lines 23-25
                self.state.mark_delivered(message)
                self._record_delivery(message)

    # ------------------------------------------------------------------ #
    # Task 1 (lines 28-32)
    # ------------------------------------------------------------------ #
    def on_tick(self) -> None:
        for message in self.state.msg_set.as_list():
            self.env.broadcast(MsgPayload(message))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def pending_retransmissions(self) -> int:
        """Algorithm 1 never retires messages, so this only ever grows."""
        return len(self.state.msg_set)

    def describe(self) -> str:
        return (
            f"algorithm1(n={self.n_processes}, "
            f"majority={self.majority_threshold})"
        )
