"""Crash-fault injection.

The paper assumes the *crash-stop* failure model (§II): a process executes
its algorithm correctly until it crashes; a crashed process executes no
further statements and never recovers.  A process that never crashes in a
run is *correct* in that run, otherwise it is *faulty*.

:class:`CrashSchedule` is the simulator's ground truth for a run's failure
pattern: it maps each process index to its crash time (``NEVER`` for correct
processes).  Both the engine (to stop dispatching to crashed processes) and
the failure-detector oracles (which are formally defined over the failure
pattern) read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .simtime import NEVER, SimTime, is_never, validate_time


@dataclass(frozen=True)
class CrashSchedule:
    """The failure pattern of a run.

    Attributes
    ----------
    n_processes:
        Total number of processes.
    crash_times:
        Mapping from process index to crash time.  Indices absent from the
        mapping never crash.
    """

    n_processes: int
    crash_times: Mapping[int, SimTime] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ValueError("n_processes must be positive")
        normalised: dict[int, SimTime] = {}
        for index, time in dict(self.crash_times).items():
            if not isinstance(index, int) or not (0 <= index < self.n_processes):
                raise ValueError(
                    f"crash schedule index {index!r} out of range "
                    f"[0, {self.n_processes})"
                )
            if not is_never(time):
                validate_time(time, name=f"crash time of process {index}")
                normalised[index] = float(time)
        if len(normalised) >= self.n_processes:
            raise ValueError(
                "the paper's model assumes at least one correct process "
                f"(t <= n-1); got {len(normalised)} crashes for "
                f"{self.n_processes} processes"
            )
        object.__setattr__(self, "crash_times", dict(normalised))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def none(cls, n_processes: int) -> "CrashSchedule":
        """A failure-free run."""
        return cls(n_processes=n_processes, crash_times={})

    @classmethod
    def crash_at(cls, n_processes: int, crashes: Mapping[int, SimTime]) -> "CrashSchedule":
        """Crash the given processes at the given times."""
        return cls(n_processes=n_processes, crash_times=dict(crashes))

    @classmethod
    def crash_initially(cls, n_processes: int, indices: Iterable[int]) -> "CrashSchedule":
        """Crash the given processes at time zero (they never take a step)."""
        return cls(n_processes=n_processes,
                   crash_times={i: 0.0 for i in indices})

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def crash_time(self, index: int) -> SimTime:
        """Crash time of process *index* (``NEVER`` if it is correct)."""
        self._check_index(index)
        return self.crash_times.get(index, NEVER)

    def is_correct(self, index: int) -> bool:
        """Whether process *index* is correct *in this run* (never crashes)."""
        self._check_index(index)
        return index not in self.crash_times

    def is_faulty(self, index: int) -> bool:
        """Whether process *index* crashes at some point in this run."""
        return not self.is_correct(index)

    def is_crashed_at(self, index: int, time: SimTime) -> bool:
        """Whether process *index* has already crashed at simulated *time*."""
        return self.crash_time(index) <= time

    def correct_indices(self) -> tuple[int, ...]:
        """Indices of the correct processes (paper's ``Correct`` set).

        Cached after the first call: the schedule is frozen, and failure
        detectors read this set on every view query.
        """
        cached = self.__dict__.get("_correct_indices")
        if cached is None:
            crash_times = self.crash_times
            cached = tuple(
                i for i in range(self.n_processes) if i not in crash_times
            )
            object.__setattr__(self, "_correct_indices", cached)
        return cached

    def faulty_indices(self) -> tuple[int, ...]:
        """Indices of the faulty processes (paper's ``Faulty`` set)."""
        return tuple(i for i in range(self.n_processes) if self.is_faulty(i))

    def alive_indices_at(self, time: SimTime) -> tuple[int, ...]:
        """Indices of processes that have not crashed by *time*."""
        return tuple(
            i for i in range(self.n_processes) if not self.is_crashed_at(i, time)
        )

    def crashed_indices_at(self, time: SimTime) -> tuple[int, ...]:
        """Indices of processes that have crashed by *time*."""
        return tuple(
            i for i in range(self.n_processes) if self.is_crashed_at(i, time)
        )

    @property
    def n_faulty(self) -> int:
        """Number of faulty processes (paper's ``t`` for this run)."""
        return len(self.crash_times)

    @property
    def n_correct(self) -> int:
        """Number of correct processes."""
        return self.n_processes - self.n_faulty

    def has_correct_majority(self) -> bool:
        """Whether a majority of processes are correct (``t < n/2``)."""
        return self.n_faulty < self.n_processes / 2

    def __iter__(self) -> Iterator[tuple[int, SimTime]]:
        """Iterate over ``(index, crash_time)`` pairs for faulty processes."""
        return iter(sorted(self.crash_times.items()))

    def describe(self) -> str:
        """Human-readable summary used in reports."""
        if not self.crash_times:
            return "no crashes"
        parts = [f"p{i}@{t:g}" for i, t in sorted(self.crash_times.items())]
        return ", ".join(parts)

    # ------------------------------------------------------------------ #
    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.n_processes):
            raise IndexError(
                f"process index {index} out of range [0, {self.n_processes})"
            )
