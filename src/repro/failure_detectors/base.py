"""Failure-detector interfaces.

A failure detector (paper §II, citing Chandra & Toueg) is a module providing
each process a read-only local variable containing (possibly unreliable)
failure information.  The anonymous classes AΘ and AP\\* output a set of
``(label, number)`` pairs.

The simulator realises detectors as *oracles*: objects that, given a process
index and the current simulated time, return that process's current view.
Formally a failure detector is a function of the run's failure pattern, which
is exactly what the oracles compute (they read the ground-truth crash
schedule); see DESIGN.md §3.3 for the discussion of which instantiations
satisfy the formal properties in which runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..simulation.simtime import SimTime
from .labels import Label


@dataclass(frozen=True, slots=True)
class FDPair:
    """One ``(label, number)`` pair of an anonymous failure-detector output."""

    label: Label
    number: int

    def __post_init__(self) -> None:
        if self.number < 0:
            raise ValueError("number must be non-negative")


class FailureDetectorView:
    """An immutable snapshot of a failure detector's output at one process.

    The view is what protocol code reads (the paper's read-only local
    variable ``a_theta_i`` / ``a_p*_i``): a set of :class:`FDPair`.
    """

    __slots__ = ("_pairs", "_by_label", "_labels", "min_number")

    def __init__(self, pairs: Iterable[FDPair] = ()) -> None:
        pairs = tuple(pairs)
        by_label: dict[Label, int] = {}
        for pair in pairs:
            if pair.label in by_label:
                raise ValueError(
                    f"duplicate label {pair.label!r} in failure-detector view"
                )
            by_label[pair.label] = pair.number
        self._pairs = pairs
        self._by_label = by_label
        self._labels: Optional[frozenset[Label]] = None
        #: Smallest ``number`` of any pair (0 for the empty view): no pair
        #: can be satisfied by fewer acknowledgers than this.
        self.min_number = min(by_label.values(), default=0)

    # -- set-like access ------------------------------------------------ #
    def __iter__(self) -> Iterator[FDPair]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __contains__(self, label: Label) -> bool:
        return label in self._by_label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureDetectorView):
            return NotImplemented
        return self._by_label == other._by_label

    def __hash__(self) -> int:
        return hash(frozenset(self._by_label.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"({pair.label.short()}, {pair.number})" for pair in self._pairs
        )
        return f"FDView{{{inner}}}"

    # -- queries used by the protocols ----------------------------------- #
    @property
    def pairs(self) -> tuple[FDPair, ...]:
        """The pairs as a tuple (stable iteration order)."""
        return self._pairs

    def labels(self) -> frozenset[Label]:
        """The set of labels in the view (what Algorithm 2 attaches to ACKs).

        Cached: views are immutable, and the AΘ / AP\\* oracles intern them
        by content, so every query that finds equal pairs, at any process
        and in any window, gets one view object and hence one shared,
        hash-cached frozenset.  Protocol code that attaches the label set
        to each outgoing ACK allocates nothing per send, and Algorithm 2
        can compare views and label sets by identity.
        """
        labels = self._labels
        if labels is None:
            labels = self._labels = frozenset(self._by_label)
        return labels

    def number_for(self, label: Label) -> Optional[int]:
        """The ``number`` associated with *label*, or ``None`` if absent."""
        return self._by_label.get(label)

    def is_empty(self) -> bool:
        """Whether the view currently outputs no pairs."""
        return not self._pairs

    @staticmethod
    def empty() -> "FailureDetectorView":
        """The empty view: one shared instance, as identity checks expect."""
        return _EMPTY_VIEW

    @classmethod
    def from_mapping(cls, mapping: dict[Label, int]) -> "FailureDetectorView":
        """Build a view from a ``label -> number`` mapping."""
        return cls(FDPair(label, number) for label, number in mapping.items())


_EMPTY_VIEW = FailureDetectorView()


class FailureDetector(abc.ABC):
    """Oracle-side interface of an anonymous failure detector."""

    @abc.abstractmethod
    def view(self, process_index: int, now: SimTime) -> FailureDetectorView:
        """Return the output of the detector at *process_index* at time *now*."""

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return type(self).__name__


class StaticFailureDetector(FailureDetector):
    """A detector whose output never changes (useful in unit tests)."""

    def __init__(self, views: dict[int, FailureDetectorView],
                 default: Optional[FailureDetectorView] = None) -> None:
        self._views = dict(views)
        self._default = default if default is not None else FailureDetectorView.empty()

    def view(self, process_index: int, now: SimTime) -> FailureDetectorView:
        return self._views.get(process_index, self._default)

    def describe(self) -> str:
        return "static"
