"""Spec dataclasses held by the component registries.

Each spec couples a *name* with a *factory* and the metadata the harness
needs to wire the component correctly without asking it anything else:

* :class:`AlgorithmSpec` — builds one protocol process per index.  The
  metadata flags replace what used to be special-cased string comparisons in
  the runner: ``uses_failure_detectors`` decides whether the AΘ/AP\\* oracles
  are constructed, ``anonymous`` parameterises the anonymity audit, and
  ``requires_majority`` / ``supports_quiescence`` describe the protocol's
  assumptions for reports and suite planning.
* :class:`ChannelSpec` — builds the per-pair channel factory for a scenario.
* :class:`DetectorSetupSpec` — builds the ``(atheta, apstar)`` oracle pair.
* :class:`WorkloadSpec` — builds a workload preset from the scenario, so
  sweeps can select workloads by (picklable) name.
* :class:`StrategySpec` — builds a schedule-exploration controller from a
  scenario and a schedule index (see :mod:`repro.explore`).  ``enumerative``
  strategies additionally expose the size of their finite schedule space so
  the explorer can cap its budget.
* :class:`EngineSpec` — builds the simulation engine itself (a dispatch
  backend).  Every backend receives the exact keyword arguments of
  :class:`~repro.simulation.engine.SimulationEngine` and must produce
  bit-identical results to the ``reference`` backend (see DESIGN.md §12).

Factories receive the full :class:`~repro.experiments.config.Scenario`, which
keeps their signatures stable while letting implementations read whichever
fields (or ``scenario.metadata`` entries) they care about.

Each spec class also carries ``TABLE_COLUMNS`` — the ``(header, field)``
pairs ``repro-urb components`` renders — so the CLI can enumerate any
registry generically instead of hardcoding one table per component kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.interfaces import BroadcastProtocol
    from ..experiments.config import Scenario
    from ..explore.controller import ScheduleController
    from ..failure_detectors.base import FailureDetector
    from ..simulation.environment import ProcessEnvironment
    from ..simulation.faults import CrashSchedule
    from ..simulation.rng import RandomSource
    from ..workloads.base import Workload

#: ``(scenario, index, env) -> protocol`` — one call per process.
AlgorithmFactory = Callable[
    ["Scenario", int, "ProcessEnvironment"], "BroadcastProtocol"
]

#: ``(scenario, crash_schedule) -> channel factory`` — the returned object
#: must expose ``build(src, dst, loss_rng, delay_rng)`` and ``describe()``.
ChannelFactoryBuilder = Callable[["Scenario", "CrashSchedule"], Any]

#: ``(scenario, crash_schedule, random_source) -> (atheta, apstar)``.
DetectorSetupFactory = Callable[
    ["Scenario", "CrashSchedule", "RandomSource"],
    Tuple[Optional["FailureDetector"], Optional["FailureDetector"]],
]

#: ``(scenario, rng) -> workload`` — *rng* is a dedicated substream of the
#: run's master seed so randomised presets stay reproducible (``None`` for
#: a preset registered with ``draws=False``).
WorkloadFactory = Callable[["Scenario", Optional[random.Random]], "Workload"]

#: ``(scenario, schedule_index) -> controller`` — one schedule per index.
StrategyFactory = Callable[["Scenario", int], "ScheduleController"]

#: ``(**engine_kwargs) -> engine`` — called with the exact keyword arguments
#: of :class:`~repro.simulation.engine.SimulationEngine`; usually the engine
#: class itself.
EngineFactory = Callable[..., Any]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered broadcast protocol."""

    TABLE_COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("name", "name"),
        ("needs majority", "requires_majority"),
        ("quiescent", "supports_quiescence"),
        ("uses FDs", "uses_failure_detectors"),
        ("anonymous", "anonymous"),
        ("description", "description"),
    )

    name: str
    factory: AlgorithmFactory
    description: str = ""
    #: Correctness requires a majority of processes to stay correct.
    requires_majority: bool = False
    #: The protocol eventually stops sending (quiescence, §V of the paper).
    supports_quiescence: bool = False
    #: The runner must build the AΘ/AP\* oracle pair for this protocol.
    uses_failure_detectors: bool = False
    #: Processes are anonymous; identified protocols fail the anonymity audit
    #: unless this is false.
    anonymous: bool = True
    #: Free-form extras (displayed by ``repro-urb components``).
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ChannelSpec:
    """A registered channel family."""

    TABLE_COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("name", "name"),
        ("lossy", "lossy"),
        ("description", "description"),
    )

    name: str
    factory: ChannelFactoryBuilder
    description: str = ""
    #: Whether the family can drop copies (drives report annotations).
    lossy: bool = True
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DetectorSetupSpec:
    """A registered failure-detector parameterisation."""

    TABLE_COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("name", "name"),
        ("description", "description"),
    )

    name: str
    factory: DetectorSetupFactory
    description: str = ""
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadSpec:
    """A registered workload preset."""

    TABLE_COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("name", "name"),
        ("description", "description"),
    )

    name: str
    factory: WorkloadFactory
    description: str = ""
    #: Whether the factory draws from its rng (else it is handed ``None``).
    draws: bool = True
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StrategySpec:
    """A registered schedule-exploration strategy.

    ``factory(scenario, schedule_index)`` builds the controller driving
    schedule number *schedule_index* of the strategy's (seeded or
    enumerated) schedule space.
    """

    TABLE_COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("name", "name"),
        ("enumerative", "enumerative"),
        ("description", "description"),
    )

    name: str
    factory: StrategyFactory
    description: str = ""
    #: The strategy enumerates a finite schedule space (vs. a seeded walk).
    enumerative: bool = False
    #: For enumerative strategies: ``schedule_count(scenario)`` — the size of
    #: the space, used by the explorer to cap its budget.
    schedule_count: Optional[Callable[["Scenario"], int]] = None
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EngineSpec:
    """A registered simulation-engine backend.

    ``factory(**engine_kwargs)`` receives the keyword arguments of
    :class:`~repro.simulation.engine.SimulationEngine` verbatim and returns
    a ready-to-run engine.  Backends are *implementation strategies*, not
    semantic variants: every backend must produce bit-identical trace
    digests, delivery logs and metrics against ``reference`` (the parity
    suite in :mod:`repro.experiments.parity` enforces this in CI).
    """

    TABLE_COLUMNS: ClassVar[Tuple[Tuple[str, str], ...]] = (
        ("name", "name"),
        ("batched", "batched"),
        ("description", "description"),
    )

    name: str
    factory: EngineFactory
    description: str = ""
    #: The backend batches delivery dispatch (vs. per-event queue dispatch).
    batched: bool = False
    extra: Mapping[str, Any] = field(default_factory=dict)
