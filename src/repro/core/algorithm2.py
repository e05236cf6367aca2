r"""Algorithm 2 — Quiescent Uniform Reliable Broadcast with AΘ and AP\*.

Quiescent URB in ``AAS_F[AΘ, AP*]`` with **any** number of crashes (paper
§VI).  Differences from Algorithm 1:

* ACKs additionally carry the label set the acknowledger currently reads
  from its AΘ variable (lines 13–21).  Receivers keep, per message and per
  acknowledger (``tag_ack``), the last label set received, and maintain a
  per-label counter of how many distinct acknowledgers currently report the
  label (lines 22–45, reconciling repeated ACKs that carry more or fewer
  labels as AΘ converges).
* **Delivery condition** (line 46): deliver once *some* AΘ pair
  ``(label, number)`` has its counter reach ``number`` — by AΘ-accuracy
  those ``number`` acknowledgers include at least one correct process, which
  will keep re-broadcasting the message, so uniform agreement holds without
  any majority assumption.
* **Quiescence** (Task 1, lines 52–61): a message that has been delivered
  and fully acknowledged according to AP\* is *retired* from the ``MSG``
  set, after which it is never re-broadcast again; eventually every process
  stops sending — the protocol is quiescent (Theorem 3).

Two faithfulness notes (see DESIGN.md §3.4): the repeated-ACK reconciliation
follows the evident intent of the paper's garbled lines 38–44, and the
delivery/retire comparisons default to ``>=`` / ``⊇`` (``strict_equality``
restores literal ``=`` / ``=``; ablation E10 compares both).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..failure_detectors.base import FailureDetectorView
from ..failure_detectors.labels import Label
from .interfaces import EnvironmentAPI
from .messages import AckPayload, LabeledAckPayload, MsgPayload, TaggedMessage
from .process_base import AnonymousProcess
from .state import Algorithm2State, carriers

#: The label set of an unlabelled ``AckPayload``: one object, so that a
#: repeat of one finds ``old is labels`` in ``_try_deliver``.
_NO_LABELS: frozenset[Label] = frozenset()


class QuiescentUrbProcess(AnonymousProcess):
    """One anonymous process running Algorithm 2.

    Parameters
    ----------
    env:
        Process environment (must provide AΘ and AP\\* views).
    strict_equality:
        Use the paper's literal ``counter == number`` (and label-set
        equality) in the delivery and retire conditions instead of the
        robust ``counter >= number`` / superset form.  See DESIGN.md §3.4.
    retire_enabled:
        Allow Task 1 to retire fully-acknowledged delivered messages.
        Disabling it turns the protocol into a non-quiescent variant that is
        otherwise identical (used by the quiescence ablation).
    eager_first_broadcast:
        See :class:`~repro.core.process_base.AnonymousProcess`.
    """

    name = "algorithm2"

    #: A repeated ``tag_ack`` carrying the label set already on record
    #: reconciles nothing (``record_labeled_ack``), and ``_try_deliver``
    #: returns at once for a delivered message — under ``strict_equality``
    #: too: the comparison form only matters while undelivered.
    repeated_ack_is_noop_once_delivered = True

    def __init__(
        self,
        env: EnvironmentAPI,
        *,
        strict_equality: bool = False,
        retire_enabled: bool = True,
        eager_first_broadcast: bool = True,
    ) -> None:
        super().__init__(env, eager_first_broadcast=eager_first_broadcast)
        self.strict_equality = strict_equality
        self.retire_enabled = retire_enabled
        self.state = Algorithm2State()
        #: Number of messages retired from ``MSG`` by the quiescence rule.
        self.retired_count = 0
        #: The ACK last built per message: re-sent while AΘ hands out the
        #: same label-set object (its ``tag_ack`` never changes).
        self._last_ack: dict[TaggedMessage, LabeledAckPayload] = {}
        #: The AΘ view under which each undelivered message last failed the
        #: delivery condition.
        self._failed_under: dict[TaggedMessage, FailureDetectorView] = {}
        #: ACK payloads of delivered messages whose labels are still the
        #: ones on record for their ``tag_ack``: receiving one again is a
        #: no-op.  A payload leaves when its acknowledger moves to another
        #: label set, since receiving it again would move it back.
        self._settled: set[Union[AckPayload, LabeledAckPayload]] = set()

    # ------------------------------------------------------------------ #
    # URB_broadcast (lines 4-6)
    # ------------------------------------------------------------------ #
    def urb_broadcast(self, content: Any) -> None:
        tag = self._new_tag()                          # line 5
        message = TaggedMessage(content=content, tag=tag)
        self.state.add_message(message)                # line 6
        if self.eager_first_broadcast:
            self.env.broadcast(MsgPayload(message))

    # ------------------------------------------------------------------ #
    # receive (MSG, m, tag)  (lines 7-21)
    # ------------------------------------------------------------------ #
    def _on_msg(self, payload: MsgPayload) -> None:
        message = payload.message
        if message not in self.state.msg_set:           # line 8
            if not self.state.is_delivered(message):    # line 9
                self.state.add_message(message)         # line 10
        ack_tag = self.state.my_ack_for(message)
        if ack_tag is None:                              # lines 16-21
            ack_tag = self._new_tag()                    # line 17
            self.state.set_my_ack(message, ack_tag)      # line 18
        # Lines 14/19: read the label set from AΘ at (re-)acknowledgement
        # time; repeated ACKs keep the same tag_ack but refresh the labels.
        labels = self.env.atheta().labels()
        ack = self._last_ack.get(message)
        if ack is None or ack.labels is not labels:
            ack = self._last_ack[message] = LabeledAckPayload(
                message, ack_tag, labels)
        self.env.broadcast(ack)

    # ------------------------------------------------------------------ #
    # receive (ACK, m, tag, tag_ack, labels)  (lines 22-51)
    # ------------------------------------------------------------------ #
    def _on_ack(self, payload: Union[AckPayload, LabeledAckPayload]) -> None:
        if payload in self._settled:
            return
        message = payload.message
        ack_tag = payload.ack_tag
        labels = getattr(payload, "labels", _NO_LABELS)
        old = self.state.record_labeled_ack(message, ack_tag, labels)
        if old is not None and old is not labels and old != labels:
            # The acknowledger moved: unsettle what it carried before, in
            # either form when that was no label at all.
            settled = self._settled
            settled.discard(LabeledAckPayload(message, ack_tag, old))
            if not old:
                settled.discard(AckPayload(message, ack_tag))
        if self._try_deliver(message, old, labels):
            self._settled.add(payload)

    def _try_deliver(self, message: TaggedMessage,
                     old: Optional[frozenset[Label]],
                     labels: frozenset[Label]) -> bool:
        """Delivery condition, lines 46-51, after an acknowledger's label
        set went from *old* (``None``: a first ACK) to *labels*.  Returns
        whether *message* is delivered."""
        if self.state.is_delivered(message):
            return True
        view = self.env.atheta()
        failed = self._failed_under.get(message)
        only = None
        if view is failed:
            # It failed under these pairs, and since then only the counters
            # of the labels the acknowledger added or dropped have moved.
            if old is labels:
                return False
            only = labels if old is None else old ^ labels
        if self._delivery_condition(message, view, only):
            self._failed_under.pop(message, None)
            self.state.mark_delivered(message)          # line 48
            self._record_delivery(message)              # line 49
            return True
        self._failed_under[message] = view
        return False

    def _delivery_condition(self, message: TaggedMessage,
                            view: FailureDetectorView,
                            only: Optional[frozenset[Label]] = None) -> bool:
        """∃ (label, number) ∈ a_theta with counter[label] (==|>=) number,
        among the pairs of the labels *only* when given."""
        state = self.state
        # A label's counter never exceeds the number of acknowledgers on
        # record, so below the view's smallest number no pair can match.
        if len(state.ack_records.get(message, ())) < view.min_number:
            return False
        sets = state.label_sets.get(message, {})
        labels = view.labels()
        for label in labels if only is None else labels & only:
            if self._satisfies(carriers(sets, label), view.number_for(label)):
                return True
        return False

    # ------------------------------------------------------------------ #
    # Task 1 (lines 52-61)
    # ------------------------------------------------------------------ #
    def on_tick(self) -> None:
        if not self.state.msg_set:
            return
        ap_view = self.env.apstar()
        for message in self.state.msg_set.as_list():
            self.env.broadcast(MsgPayload(message))                 # line 54
            if not self.retire_enabled:
                continue
            if self._retire_condition(message, ap_view):            # line 55
                if self.state.is_delivered(message):                # line 56
                    self.state.msg_set.discard(message)             # line 57
                    self.retired_count += 1
                    self.env.notify_retire(message)

    def _retire_condition(self, message: TaggedMessage,
                          ap_view: FailureDetectorView) -> bool:
        """Line 55: every AP\\* pair fully acknowledged, labels consistent."""
        if ap_view.is_empty():
            # Without any failure-detector information the process cannot
            # conclude that every correct process has acknowledged; keep
            # retransmitting (conservative — affects only liveness).
            return False
        sets = self.state.label_sets.get(message, {})
        for pair in ap_view:
            if not self._satisfies(carriers(sets, pair.label), pair.number):
                return False
        union = self.state.labels_union(message)
        ap_labels = ap_view.labels()
        if self.strict_equality:
            return union == ap_labels
        return ap_labels <= union

    # ------------------------------------------------------------------ #
    # helpers / introspection
    # ------------------------------------------------------------------ #
    def _satisfies(self, count: int, number: int) -> bool:
        """Counter comparison: literal equality or the robust ``>=`` form."""
        if self.strict_equality:
            return count == number
        return count >= number

    @property
    def pending_retransmissions(self) -> int:
        """Messages still re-broadcast every tick; reaches zero once the
        process has retired everything (quiescence)."""
        return len(self.state.msg_set)

    def describe(self) -> str:
        mode = "strict" if self.strict_equality else "robust"
        retire = "retire" if self.retire_enabled else "no-retire"
        return f"algorithm2({mode}, {retire})"
