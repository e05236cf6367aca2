"""Ground-truth oracle over a run's failure pattern.

Failure detectors are formally defined as functions of the *failure pattern*
of a run (which processes crash, and when).  The simulator knows the failure
pattern exactly — it is the :class:`~repro.simulation.faults.CrashSchedule`
injected into the run — so the detectors are implemented on top of a
:class:`GroundTruthOracle` that answers questions like "is process ``j``
correct in this run?" and "when does ``j`` crash?".

The oracle also owns the process → label assignment used by the anonymous
detectors; protocol code never sees this object.
"""

from __future__ import annotations

import random
from typing import Optional

from ..simulation.faults import CrashSchedule
from ..simulation.simtime import SimTime
from .labels import Label, LabelAssigner


class GroundTruthOracle:
    """Omniscient view of one run's failure pattern and label assignment.

    Parameters
    ----------
    crash_schedule:
        The run's failure pattern.
    labels:
        Label assignment; built internally from *rng* when omitted.
    rng:
        Random substream for label generation (required if *labels* is not
        given).
    """

    def __init__(
        self,
        crash_schedule: CrashSchedule,
        labels: Optional[LabelAssigner] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.crash_schedule = crash_schedule
        if labels is None:
            if rng is None:
                rng = random.Random(0)
            labels = LabelAssigner(crash_schedule.n_processes, rng)
        if labels.n_processes != crash_schedule.n_processes:
            raise ValueError(
                "label assignment size does not match the crash schedule "
                f"({labels.n_processes} != {crash_schedule.n_processes})"
            )
        self.labels = labels

    # ------------------------------------------------------------------ #
    # failure-pattern queries
    # ------------------------------------------------------------------ #
    @property
    def n_processes(self) -> int:
        """Number of processes in the run."""
        return self.crash_schedule.n_processes

    def is_correct(self, index: int) -> bool:
        """Whether process *index* is correct in this run."""
        return self.crash_schedule.is_correct(index)

    def is_faulty(self, index: int) -> bool:
        """Whether process *index* crashes at some point in this run."""
        return self.crash_schedule.is_faulty(index)

    def correct_indices(self) -> tuple[int, ...]:
        """Indices of the correct processes."""
        return self.crash_schedule.correct_indices()

    def faulty_indices(self) -> tuple[int, ...]:
        """Indices of the faulty processes."""
        return self.crash_schedule.faulty_indices()

    @property
    def n_correct(self) -> int:
        """Number of correct processes."""
        return self.crash_schedule.n_correct

    def crash_time(self, index: int) -> SimTime:
        """Crash time of process *index* (``inf`` for correct processes)."""
        return self.crash_schedule.crash_time(index)

    def is_crashed_at(self, index: int, now: SimTime) -> bool:
        """Whether process *index* has crashed by time *now*."""
        return self.crash_schedule.is_crashed_at(index, now)

    # ------------------------------------------------------------------ #
    # label queries (oracle / analysis side only)
    # ------------------------------------------------------------------ #
    def label_of(self, index: int) -> Label:
        """Label of process *index*."""
        return self.labels.label_of(index)

    def index_of(self, label: Label) -> int:
        """Process carrying *label* (inverse lookup)."""
        return self.labels.index_of(label)

    def labels_of_correct(self) -> frozenset[Label]:
        """Labels of the correct processes."""
        return self.labels.labels_of(self.correct_indices())

    def labels_of_all(self) -> frozenset[Label]:
        """Labels of every process."""
        return self.labels.all_labels()

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        return (
            f"oracle(n={self.n_processes}, correct={self.n_correct}, "
            f"crashes=[{self.crash_schedule.describe()}])"
        )
