"""High-level scenario configuration.

A :class:`Scenario` is the user-facing description of one simulated run:
which algorithm, how many processes, which crashes, what kind of channels,
which failure-detector parameterisation, what workload, and for how long.
The :mod:`repro.experiments.runner` module turns a scenario into a wired-up
:class:`~repro.simulation.engine.SimulationEngine` and runs it.

Scenarios are plain frozen dataclasses: cheap to construct, easy to sweep
over (``dataclasses.replace``), and fully determined by their fields plus the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Union

from ..network.delay import DelaySpec
from ..network.fair_lossy import DEFAULT_FAIRNESS_BOUND
from ..network.loss import LossSpec
from ..failure_detectors.policies import DisseminationPolicy
from ..registry import (
    algorithms,
    channels,
    detector_setups,
    engines,
    strategies,
    workloads,
)
from ..workloads.base import Workload


@dataclass(frozen=True)
class Scenario:
    """One fully described simulated run (minus the seed-dependent draws).

    Attributes
    ----------
    name:
        Free-form scenario name used in reports.
    algorithm:
        Name of a registered algorithm (see :mod:`repro.registry`).
    n_processes:
        Number of anonymous processes.
    seed:
        Master seed of the run.
    crashes:
        Failure pattern: mapping from process index to crash time.
    loss, delay, fairness_bound, channel_type:
        Channel model (see :mod:`repro.network`).
    tick_interval:
        Task 1 retransmission period.
    max_time:
        Simulation horizon.
    check_interval:
        Engine self-check period for early-stop predicates.
    stop_when_all_correct_delivered, stop_when_quiescent, drain_grace_period:
        Early-stop behaviour.
    detector_setup:
        Name of a registered failure-detector setup (only consulted for
        algorithms whose spec sets ``uses_failure_detectors``).
    fd_policy, fd_detection_delay, fd_learn_delay, apstar_detection_delay:
        Failure-detector parameterisation (Algorithm 2 only).
    strict_equality, retire_enabled, eager_first_broadcast, majority_threshold:
        Algorithm options.
    workload:
        The application broadcast schedule: a :class:`Workload` instance, the
        name of a registered workload preset, or ``None`` (a single broadcast
        by process 0 at time 0).
    trace_enabled, trace_ticks:
        Trace recording switches (disable for very large benchmark runs).
    explore_strategy, explore_index:
        Schedule exploration (see :mod:`repro.explore`): the name of a
        registered exploration strategy driving the run's nondeterminism,
        and which schedule of that strategy's space to execute.  ``None``
        (the default) runs the ordinary RNG-driven schedule.
    metadata:
        Free-form metadata propagated to results and reports.
    """

    name: str = "scenario"
    algorithm: str = "algorithm2"
    n_processes: int = 5
    seed: int = 0

    crashes: Mapping[int, float] = field(default_factory=dict)

    loss: LossSpec = field(default_factory=LossSpec.none)
    delay: DelaySpec = field(default_factory=lambda: DelaySpec.uniform(0.05, 0.5))
    fairness_bound: Optional[int] = DEFAULT_FAIRNESS_BOUND
    channel_type: str = "fair_lossy"

    tick_interval: float = 1.0
    max_time: float = 300.0
    check_interval: float = 1.0
    stop_when_all_correct_delivered: bool = False
    stop_when_quiescent: bool = False
    drain_grace_period: float = 0.0

    detector_setup: str = "oracle"
    fd_policy: DisseminationPolicy | str = DisseminationPolicy.CORRECT_ONLY
    fd_detection_delay: float = 2.0
    fd_learn_delay: float = 0.0
    apstar_detection_delay: Optional[float] = None

    strict_equality: bool = False
    retire_enabled: bool = True
    eager_first_broadcast: bool = True
    majority_threshold: Optional[int] = None

    workload: Optional[Union[Workload, str]] = None

    trace_enabled: bool = True
    trace_ticks: bool = False

    explore_strategy: Optional[str] = None
    explore_index: int = 0

    #: Simulation-engine backend (``repro.registry.engines``).  Backends are
    #: bit-identical by contract, so this is a speed knob, not a semantic one.
    engine: str = "reference"

    metadata: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        # Validate component names against the *live* registries so that
        # third-party registrations are accepted exactly like built-ins.
        algorithms.get(self.algorithm)
        channels.get(self.channel_type)
        detector_setups.get(self.detector_setup)
        if isinstance(self.workload, str):
            workloads.get(self.workload)
        if self.explore_strategy is not None:
            strategies.get(self.explore_strategy)
        if self.explore_index < 0:
            raise ValueError("explore_index must be non-negative")
        engines.get(self.engine)
        if self.n_processes < 1:
            raise ValueError("n_processes must be positive")
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        for index, time in dict(self.crashes).items():
            if not (0 <= int(index) < self.n_processes):
                raise ValueError(
                    f"crash index {index} out of range for n={self.n_processes}"
                )
            if time < 0:
                raise ValueError("crash times must be non-negative")
        if len(self.crashes) >= self.n_processes:
            raise ValueError("at least one process must remain correct")
        # Normalise the policy eagerly so typos fail at construction time.
        object.__setattr__(
            self, "fd_policy", DisseminationPolicy.from_string(self.fd_policy)
        )

    # ------------------------------------------------------------------ #
    # derived quantities and sweeping helpers
    # ------------------------------------------------------------------ #
    @property
    def n_crashes(self) -> int:
        """Number of faulty processes in the scenario."""
        return len(self.crashes)

    @property
    def has_correct_majority(self) -> bool:
        """Whether a majority of processes stay correct."""
        return self.n_crashes < self.n_processes / 2

    @property
    def effective_apstar_delay(self) -> float:
        """AP\\* detection delay (defaults to the AΘ detection delay)."""
        if self.apstar_detection_delay is None:
            return self.fd_detection_delay
        return self.apstar_detection_delay

    def with_seed(self, seed: int) -> "Scenario":
        """Copy of the scenario with a different seed."""
        return replace(self, seed=seed)

    def with_(self, **changes: Any) -> "Scenario":
        """Copy of the scenario with arbitrary field changes."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line description used in reports."""
        return (
            f"{self.name}: {self.algorithm}, n={self.n_processes}, "
            f"crashes={self.n_crashes}, loss={self.loss.describe()}, "
            f"seed={self.seed}"
        )
