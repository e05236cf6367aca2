"""Per-process protocol state containers.

The paper's algorithms manage a handful of local sets per process:

* ``MSG_i`` — messages to retransmit forever (Task 1),
* ``URB_DELIVERED_i`` — messages already URB-delivered,
* ``MY_ACK_i`` — the process's own ``tag_ack`` per ``(m, tag)``,
* ``ALL_ACK_i`` — acknowledgements received from anyone,

plus, for Algorithm 2, the per-message label bookkeeping
(``all_labels_i``, and ``label_counter_i`` kept as a count per label set).

The containers below encapsulate those sets with the exact update rules the
algorithms need, so the algorithm classes read like the paper's pseudocode
and the invariants (insertion-order determinism, counter consistency) are
testable in isolation.  They are the only representation of protocol state:
every engine backend drives the same handlers over the same dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

from ..failure_detectors.labels import Label
from .messages import TaggedMessage
from .tags import Tag


class MessageSet:
    """An insertion-ordered set of ``(m, tag)`` pairs.

    Used for ``MSG_i`` and ``URB_DELIVERED_i``.  Insertion order matters for
    determinism: Task 1 retransmits messages in the order they entered the
    set, so two runs with the same seed produce identical schedules.
    """

    def __init__(self, items: Iterable[TaggedMessage] = ()) -> None:
        self._items: dict[TaggedMessage, None] = {}
        for item in items:
            self.add(item)

    def add(self, message: TaggedMessage) -> bool:
        """Add *message*; return ``True`` if it was not present before."""
        if message in self._items:
            return False
        self._items[message] = None
        return True

    def discard(self, message: TaggedMessage) -> bool:
        """Remove *message* if present; return whether it was present."""
        if message in self._items:
            del self._items[message]
            return True
        return False

    def __contains__(self, message: TaggedMessage) -> bool:
        return message in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[TaggedMessage]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def as_list(self) -> list[TaggedMessage]:
        """The messages in insertion order (safe to mutate the set while
        iterating over the returned list)."""
        return list(self._items)


@dataclass(slots=True)
class AckRecord:
    """Algorithm 2 bookkeeping for one received ``tag_ack`` of one message.

    Attributes
    ----------
    ack_tag:
        The acknowledging process's ``tag_ack``.
    labels:
        The label set most recently carried by this ``tag_ack``'s ACK
        (repeated ACKs overwrite it after reconciliation).
    """

    ack_tag: Tag
    labels: frozenset[Label] = field(default_factory=frozenset)


class Algorithm1State:
    """Local state of Algorithm 1 (paper §III).

    Sets: ``MSG``, ``MY_ACK``, ``ALL_ACK``, ``URB_DELIVERED``.
    """

    def __init__(self) -> None:
        #: ``MSG_i`` — messages retransmitted every Task 1 round.
        self.msg_set = MessageSet()
        #: ``URB_DELIVERED_i``.
        self.delivered = MessageSet()
        #: ``MY_ACK_i`` — own ``tag_ack`` per message.
        self.my_ack: dict[TaggedMessage, Tag] = {}
        #: ``ALL_ACK_i`` — distinct ``tag_ack`` values received per message.
        self.all_ack: dict[TaggedMessage, set[Tag]] = {}

    # -- MSG / URB_DELIVERED -------------------------------------------- #
    def add_message(self, message: TaggedMessage) -> bool:
        """Insert ``(m, tag)`` into ``MSG`` (lines 6, 9)."""
        return self.msg_set.add(message)

    def mark_delivered(self, message: TaggedMessage) -> bool:
        """Insert ``(m, tag)`` into ``URB_DELIVERED`` (line 24)."""
        return self.delivered.add(message)

    def is_delivered(self, message: TaggedMessage) -> bool:
        """Whether ``(m, tag)`` is in ``URB_DELIVERED``."""
        # Checked once per received ACK/MSG; reading the backing dict
        # directly skips a Python-level __contains__ frame.
        return message in self.delivered._items

    # -- MY_ACK ----------------------------------------------------------- #
    def my_ack_for(self, message: TaggedMessage) -> Optional[Tag]:
        """The process's own ``tag_ack`` for *message*, if already chosen."""
        return self.my_ack.get(message)

    def set_my_ack(self, message: TaggedMessage, ack_tag: Tag) -> None:
        """Fix the process's own ``tag_ack`` for *message* (line 15).

        The tag is immutable once chosen («tag_ack cannot be changed for the
        same pair (m, tag) once it is generated»); re-assignment with a
        different value is a protocol bug and raises.
        """
        existing = self.my_ack.get(message)
        if existing is not None and existing != ack_tag:
            raise ValueError(
                f"MY_ACK already fixed for {message.describe()}: "
                f"{existing} != {ack_tag}"
            )
        self.my_ack[message] = ack_tag

    # -- ALL_ACK ---------------------------------------------------------- #
    def record_ack(self, message: TaggedMessage, ack_tag: Tag) -> bool:
        """Insert the ACK into ``ALL_ACK`` (lines 19–21).

        Returns ``True`` if this ``tag_ack`` was new for *message*.
        """
        acks = self.all_ack.get(message)
        if acks is None:
            self.all_ack[message] = {ack_tag}
            return True
        if ack_tag in acks:
            return False
        acks.add(ack_tag)
        return True

    def distinct_ack_count(self, message: TaggedMessage) -> int:
        """Number of distinct ``tag_ack`` values received for *message*."""
        return len(self.all_ack.get(message, ()))

    # -- diagnostics ------------------------------------------------------ #
    def summary(self) -> dict[str, int]:
        """Sizes of the four sets (used in debugging and tests)."""
        return {
            "msg": len(self.msg_set),
            "delivered": len(self.delivered),
            "my_ack": len(self.my_ack),
            "all_ack": sum(len(v) for v in self.all_ack.values()),
        }


def carriers(sets: Mapping[frozenset[Label], int], label: Label) -> int:
    """How many acknowledgers carry *label*, given one message's count of
    acknowledgers per label set: the paper's ``label_counter``."""
    count = 0
    for labels, carrying in sets.items():
        if label in labels:
            count += carrying
    return count


class Algorithm2State(Algorithm1State):
    """Local state of Algorithm 2 (paper §VI).

    Extends Algorithm 1's sets with the per-message label bookkeeping:

    * ``ack_records[msg][tag_ack]`` — the paper's ``all_labels_i[(m, tag),
      tag_ack]``: the label set most recently carried by that ``tag_ack``.
    * ``label_sets[msg][labels]`` — how many distinct ``tag_ack`` entries
      currently carry exactly the label set ``labels`` (no zero entries).
      The paper's ``label_counter_i[(m, tag), label]`` is the sum of the
      counts of the sets containing ``label`` (:func:`carriers`), computed
      where it is read: acknowledgers reading one detector view carry one
      shared set, so a first ACK is one increment (DESIGN.md §3.4).
    """

    def __init__(self) -> None:
        super().__init__()
        self.ack_records: dict[TaggedMessage, dict[Tag, AckRecord]] = {}
        self.label_sets: dict[TaggedMessage, dict[frozenset[Label], int]] = {}

    # -- ACK bookkeeping (lines 22–45) ------------------------------------ #
    def record_labeled_ack(
        self, message: TaggedMessage, ack_tag: Tag, labels: frozenset[Label]
    ) -> Optional[frozenset[Label]]:
        """Record an ACK carrying *labels*; reconcile repeats.

        Implements lines 23–45 of Algorithm 2 with the evident intent of the
        (garbled) "fewer labels" branch: for a repeated ``tag_ack``, labels
        newly present are counted and labels no longer present un-counted,
        which here is moving the acknowledger from its old label set's count
        to its new one's (see DESIGN.md §3.4).

        Returns the label set this ``tag_ack`` carried before, ``None`` if
        it is new for *message*.
        """
        labels = frozenset(labels)
        records = self.ack_records.get(message)
        if records is None:
            records = self.ack_records[message] = {}
            sets = self.label_sets[message] = {}
        else:
            sets = self.label_sets[message]
        record = records.get(ack_tag)
        if record is None:
            # Lines 27-32: first ACK from this (anonymous) acknowledger.
            records[ack_tag] = AckRecord(ack_tag=ack_tag, labels=labels)
            sets[labels] = sets.get(labels, 0) + 1
            # Keep ALL_ACK coherent with Algorithm 1's bookkeeping.
            super().record_ack(message, ack_tag)
            return None
        # Lines 33-45: repeated ACK from the same acknowledger, possibly with
        # an updated label set read from a converging AΘ.
        old_labels = record.labels
        record.labels = labels
        if old_labels is labels or old_labels == labels:
            # By far the dominant repeat case (a stable detector view keeps
            # handing out the identical label set): nothing to reconcile.
            return old_labels
        remaining = sets[old_labels] - 1
        if remaining:
            sets[old_labels] = remaining
        else:
            del sets[old_labels]
        sets[labels] = sets.get(labels, 0) + 1
        return old_labels

    # -- queries used by the delivery / quiescence conditions ------------- #
    def counter_for(self, message: TaggedMessage) -> Mapping[Label, int]:
        """The ``label_counter`` row for *message* (a fresh dict)."""
        counters: dict[Label, int] = {}
        for labels, count in self.label_sets.get(message, {}).items():
            for label in labels:
                counters[label] = counters.get(label, 0) + count
        return counters

    def label_count(self, message: TaggedMessage, label: Label) -> int:
        """The paper's ``label_counter`` of *label* for *message*."""
        return carriers(self.label_sets.get(message, {}), label)

    def labels_union(self, message: TaggedMessage) -> frozenset[Label]:
        """Union of the label sets across all recorded ACKs of *message*
        (the paper's ``all_labels_i[(m, tag), −]`` read as a union)."""
        return frozenset().union(*self.label_sets.get(message, ()))

    def ack_tags_for(self, message: TaggedMessage) -> frozenset[Tag]:
        """Distinct ``tag_ack`` values recorded for *message*."""
        return frozenset(self.ack_records.get(message, {}))

    # -- invariants -------------------------------------------------------- #
    def check_counter_invariant(self, message: TaggedMessage) -> bool:
        """Verify ``label_sets`` equals the recount from ``ack_records``."""
        recount: dict[frozenset[Label], int] = {}
        for record in self.ack_records.get(message, {}).values():
            recount[record.labels] = recount.get(record.labels, 0) + 1
        return recount == self.label_sets.get(message, {})

    def summary(self) -> dict[str, int]:
        """Sizes of the state containers (debugging and tests)."""
        base = super().summary()
        base["ack_records"] = sum(len(v) for v in self.ack_records.values())
        base["counted_labels"] = sum(
            len(self.labels_union(message)) for message in self.label_sets)
        return base
