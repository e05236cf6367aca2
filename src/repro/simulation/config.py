"""Low-level simulation configuration.

:class:`SimulationConfig` captures the engine-level knobs shared by every
protocol and experiment: process count, retransmission period (the paper's
Task 1 cadence), horizon, stopping behaviour and the master seed.  The
higher-level, user-facing :class:`repro.experiments.config.Scenario` builds a
``SimulationConfig`` plus the network, oracle and workload objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .simtime import NEVER, SimTime, validate_duration, validate_time


@dataclass(frozen=True, slots=True)
class StopConditions:
    """Early-stop behaviour of the engine.

    Attributes
    ----------
    stop_when_all_correct_delivered:
        Stop once every correct process has URB-delivered every payload the
        workload asked any process to broadcast.  (The run also keeps going
        until in-flight channel messages drain, so traces stay causal.)
    stop_when_quiescent:
        Stop once the protocol is *quiescent*: no process has any pending
        retransmission obligation and no channel message is in flight.
        Only meaningful for protocols that can quiesce (Algorithm 2);
        Algorithm 1 never satisfies it.
    drain_grace_period:
        Extra simulated time to keep running after a stop predicate first
        holds.  A non-zero grace period lets the trace show the (absence of)
        further traffic, which the quiescence analysis relies on.
    """

    stop_when_all_correct_delivered: bool = False
    stop_when_quiescent: bool = False
    drain_grace_period: float = 0.0

    def __post_init__(self) -> None:
        validate_duration(self.drain_grace_period, name="drain_grace_period",
                          allow_zero=True)

    @property
    def any_enabled(self) -> bool:
        """Whether any early-stop predicate is active."""
        return self.stop_when_all_correct_delivered or self.stop_when_quiescent


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Engine-level parameters of a single simulated run.

    Attributes
    ----------
    n_processes:
        Number of anonymous processes ``n`` (paper notation ``|Π| = n``).
    tick_interval:
        Period of the Task 1 retransmission loop.  The paper's «repeat
        forever» becomes one retransmission round per tick for every message
        still in the process's ``MSG`` set.
    max_time:
        Simulation horizon.  The run always terminates at this time even if
        no early-stop predicate fires (Algorithm 1 is non-quiescent, so some
        horizon is required).
    seed:
        Master seed from which every random substream is derived.
    check_interval:
        Period of the engine's self-check event used to evaluate early-stop
        predicates.  Smaller values detect stop conditions sooner at a small
        scheduling cost.
    stop:
        Early-stop behaviour, see :class:`StopConditions`.
    metadata:
        Free-form experiment metadata propagated into results.
    """

    n_processes: int
    tick_interval: float = 1.0
    max_time: SimTime = 200.0
    seed: int = 0
    check_interval: float = 1.0
    stop: StopConditions = field(default_factory=StopConditions)
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.n_processes, int) or self.n_processes < 1:
            raise ValueError(
                f"n_processes must be a positive integer, got {self.n_processes!r}"
            )
        validate_duration(self.tick_interval, name="tick_interval")
        if self.max_time is not NEVER:
            validate_time(self.max_time, name="max_time")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        validate_duration(self.check_interval, name="check_interval")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError("seed must be an int")

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy of the config with a different master seed."""
        return replace(self, seed=seed)

    @property
    def process_indices(self) -> range:
        """The range of process indices ``0 .. n-1``."""
        return range(self.n_processes)

    def majority_threshold(self) -> int:
        """Smallest integer strictly greater than ``n/2``.

        This is the number of distinct acknowledgements Algorithm 1 waits for
        before URB-delivering (paper §III: «more than n/2 different
        tag_ack»).
        """
        return self.n_processes // 2 + 1

    def describe(self) -> str:
        """One-line human readable description used in logs and reports."""
        return (
            f"n={self.n_processes} tick={self.tick_interval} "
            f"horizon={self.max_time} seed={self.seed}"
        )
