"""Opaque labels used by the anonymous failure detectors.

The failure-detector classes AΘ and AP\\* (paper §V) output pairs
``(label, number)``.  A *label* is a temporary, randomly assigned identifier
of a process: it lets the detector talk about "some process" without
revealing *which* process it is, because «each process does not know the
mapping relationship between a label and a process (even itself)».

:class:`Label` is therefore an opaque, hashable token whose representation
deliberately exposes nothing but a random value; the mapping between labels
and process indices lives only inside the oracle (the simulator's omniscient
side) and is never handed to protocol code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping


@dataclass(frozen=True, slots=True)
class Label:
    """An opaque random identifier.

    Two labels are equal iff their random values are equal; the value itself
    carries no information about the process it was assigned to.  The hash
    is cached like the wire payloads' (every ACK reception of Algorithm 2
    looks labels up in dicts and sets) and is exactly the tuple hash the
    generated ``dataclasses`` implementation would produce, so
    hash-dependent iteration orders are unchanged.
    """

    value: int
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise TypeError("label value must be an int")
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Label(0x{self.value:016x})"

    def short(self) -> str:
        """Short hex form used in reports and debug traces."""
        return f"{self.value & 0xFFFF:04x}"


class LabelAssigner:
    """Assigns a distinct random :class:`Label` to each process index.

    The assignment is owned by the oracle; protocol code only ever sees the
    labels themselves (inside failure-detector views and ACK payloads), never
    the index → label mapping.

    Parameters
    ----------
    n_processes:
        Number of processes to label.
    rng:
        Random substream used for label values (derived from the run's
        master seed, so assignments are reproducible).
    bits:
        Size of the random label values.  128 bits makes accidental
        collisions essentially impossible; uniqueness is enforced regardless.
    """

    def __init__(self, n_processes: int, rng: random.Random, bits: int = 128) -> None:
        if n_processes < 1:
            raise ValueError("n_processes must be positive")
        if bits < 8:
            raise ValueError("labels need at least 8 bits")
        self._labels: dict[int, Label] = {}
        seen: set[int] = set()
        for index in range(n_processes):
            while True:
                value = rng.getrandbits(bits)
                if value not in seen:
                    seen.add(value)
                    break
            self._labels[index] = Label(value)

    @property
    def n_processes(self) -> int:
        """Number of labelled processes."""
        return len(self._labels)

    def label_of(self, index: int) -> Label:
        """Label assigned to process *index* (oracle-side use only)."""
        try:
            return self._labels[index]
        except KeyError:
            raise IndexError(
                f"process index {index} out of range [0, {len(self._labels)})"
            ) from None

    def index_of(self, label: Label) -> int:
        """Inverse lookup (oracle-side / analysis use only)."""
        for index, candidate in self._labels.items():
            if candidate == label:
                return index
        raise KeyError(f"unknown label {label!r}")

    def labels_of(self, indices: Iterable[int]) -> frozenset[Label]:
        """Labels of several processes as a frozenset."""
        return frozenset(self.label_of(i) for i in indices)

    def all_labels(self) -> frozenset[Label]:
        """Every assigned label."""
        return frozenset(self._labels.values())

    def as_mapping(self) -> Mapping[int, Label]:
        """Read-only view of the full assignment (analysis use only)."""
        return dict(self._labels)
