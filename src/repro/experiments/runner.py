"""Scenario runner: turn a :class:`~repro.experiments.config.Scenario` into a
wired-up engine, run it, and package the outcome for analysis.

This module is the main high-level entry point of the library::

    from repro import Scenario, run_scenario
    from repro.network import LossSpec

    result = run_scenario(Scenario(algorithm="algorithm2",
                                   n_processes=5,
                                   loss=LossSpec.bernoulli(0.3),
                                   crashes={4: 10.0}))
    print(result.verdict.describe())
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ..analysis.anonymity import AnonymityAudit, audit_anonymity
from ..analysis.properties import UrbVerdict, check_urb_properties
from ..analysis.quiescence import QuiescenceReport, analyze_quiescence
from ..core.interfaces import BroadcastProtocol
from ..network.network import Network
from ..registry import (
    algorithms,
    channels,
    detector_setups,
    engines,
    strategies,
    workloads,
)
from ..simulation.config import SimulationConfig, StopConditions
from ..simulation.engine import SimulationEngine, SimulationResult
from ..simulation.environment import ProcessEnvironment
from ..simulation.faults import CrashSchedule
from ..simulation.rng import RandomSource
from ..simulation.tracing import TraceRecorder
from ..workloads.base import Workload
from .config import Scenario


@dataclass
class ScenarioResult:
    """A finished scenario; its standard analyses are computed when first
    read (each once), so a caller pays only for the ones it looks at."""

    scenario: Scenario
    simulation: SimulationResult
    #: Wall-clock seconds :func:`run_scenario` spent building and running
    #: (``None`` for results assembled by hand); an analysis is charged to
    #: whoever first reads it.  Deliberately *not* part of the deterministic
    #: result content — the campaign store indexes it for cost estimation
    #: but keeps it out of the content-addressed payload.
    wall_time: float | None = None
    #: The anonymity audit's mode, resolved when the run finishes: a scoped
    #: registration may be gone by the time :attr:`anonymity` is read.
    allow_identified: bool = False

    @cached_property
    def verdict(self) -> UrbVerdict:
        """The three URB properties, checked on the trace."""
        return check_urb_properties(self.simulation)

    @cached_property
    def quiescence(self) -> QuiescenceReport:
        """Whether, and when, the run stopped sending."""
        return analyze_quiescence(self.simulation)

    @cached_property
    def anonymity(self) -> AnonymityAudit:
        """The anonymity audits of everything the run sent."""
        return audit_anonymity(self.simulation,
                               allow_identified=self.allow_identified)

    @property
    def all_properties_hold(self) -> bool:
        """Whether the three URB properties hold on this run."""
        return self.verdict.all_hold

    @cached_property
    def metrics(self):
        """The aggregate metrics summary, built once per result."""
        return self.simulation.metrics_summary()

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            self.scenario.describe(),
            self.simulation.describe(),
            self.verdict.describe(),
            self.quiescence.describe(),
            self.anonymity.describe(),
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# engine construction
# --------------------------------------------------------------------------- #
def build_crash_schedule(scenario: Scenario) -> CrashSchedule:
    """The scenario's failure pattern as a :class:`CrashSchedule`."""
    return CrashSchedule.crash_at(scenario.n_processes, dict(scenario.crashes))


def build_network(scenario: Scenario, random_source: RandomSource,
                  crash_schedule: CrashSchedule) -> Network:
    """Build the network described by the scenario.

    The channel family is resolved through the :data:`repro.registry.channels`
    registry, so custom families registered with
    :func:`~repro.registry.register_channel` are built exactly like the
    built-in ones.
    """
    spec = channels.get(scenario.channel_type)
    factory = spec.factory(scenario, crash_schedule)
    return Network(scenario.n_processes, factory, random_source)


def build_detectors(scenario: Scenario, crash_schedule: CrashSchedule,
                    random_source: RandomSource):
    """Build the AΘ and AP\\* oracles for the scenario (or ``(None, None)``).

    Whether oracles are needed at all is decided by the algorithm spec's
    ``uses_failure_detectors`` flag; *which* oracles are built is decided by
    the scenario's ``detector_setup`` registry entry.
    """
    if not algorithms.get(scenario.algorithm).uses_failure_detectors:
        return None, None
    setup = detector_setups.get(scenario.detector_setup)
    return setup.factory(scenario, crash_schedule, random_source)


def build_process_factory(
    scenario: Scenario,
) -> Callable[[int, ProcessEnvironment], BroadcastProtocol]:
    """Factory building each process's protocol instance.

    Thin curry over the registered :class:`~repro.registry.AlgorithmSpec`:
    the spec's factory receives ``(scenario, index, env)`` and the engine
    keeps its ``(index, env)`` calling convention.
    """
    spec = algorithms.get(scenario.algorithm)

    def factory(index: int, env: ProcessEnvironment) -> BroadcastProtocol:
        return spec.factory(scenario, index, env)

    return factory


def build_workload(scenario: Scenario, random_source: RandomSource) -> Workload:
    """Resolve the scenario's workload.

    ``None`` means the registered ``"single"`` preset; a string is looked up
    in the :data:`repro.registry.workloads` registry; a :class:`Workload`
    instance is used as-is.  Presets draw randomness from the dedicated
    ``"workload"`` substream of the run's master seed, seeded only for a
    preset that draws.
    """
    workload = scenario.workload
    if workload is None:
        workload = "single"
    if isinstance(workload, str):
        spec = workloads.get(workload)
        return spec.factory(scenario, random_source.stream("workload") if spec.draws else None)
    return workload


def build_controller(scenario: Scenario):
    """The scenario's schedule controller, or ``None`` for RNG-driven runs.

    Resolved through the :data:`repro.registry.strategies` registry; the
    strategy factory receives the scenario plus its ``explore_index`` (which
    schedule of the strategy's space to execute).
    """
    if scenario.explore_strategy is None:
        return None
    spec = strategies.get(scenario.explore_strategy)
    return spec.factory(scenario, scenario.explore_index)


def build_engine(scenario: Scenario, *, controller=None) -> SimulationEngine:
    """Assemble the :class:`SimulationEngine` described by *scenario*.

    *controller* overrides the scenario's own ``explore_strategy`` wiring —
    the replay path hands a pre-built
    :class:`~repro.explore.controller.ReplayController` in directly.

    The engine class itself comes from the ``engines`` registry
    (``scenario.engine``); batching backends detect an attached controller
    themselves and fall back to per-event dispatch, so explore/replay runs
    stay exact whatever backend the scenario names.
    """
    if controller is None:
        controller = build_controller(scenario)
    engine_factory = engines.get(scenario.engine).factory
    random_source = RandomSource(scenario.seed)
    crash_schedule = build_crash_schedule(scenario)
    network = build_network(scenario, random_source, crash_schedule)
    atheta, apstar = build_detectors(scenario, crash_schedule, random_source)
    workload = build_workload(scenario, random_source)
    config = SimulationConfig(
        n_processes=scenario.n_processes,
        tick_interval=scenario.tick_interval,
        max_time=scenario.max_time,
        seed=scenario.seed,
        check_interval=scenario.check_interval,
        stop=StopConditions(
            stop_when_all_correct_delivered=scenario.stop_when_all_correct_delivered,
            stop_when_quiescent=scenario.stop_when_quiescent,
            drain_grace_period=scenario.drain_grace_period,
        ),
        metadata=dict(scenario.metadata),
    )
    return engine_factory(
        config=config,
        network=network,
        process_factory=build_process_factory(scenario),
        crash_schedule=crash_schedule,
        workload=tuple(workload),
        atheta=atheta,
        apstar=apstar,
        trace=TraceRecorder(enabled=scenario.trace_enabled),
        trace_ticks=scenario.trace_ticks,
        controller=controller,
    )


# --------------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------------- #
def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one scenario; the result computes its analyses when read."""
    started = time.perf_counter()
    simulation = build_engine(scenario).run()
    return ScenarioResult(
        scenario=scenario,
        simulation=simulation,
        wall_time=time.perf_counter() - started,
        allow_identified=not algorithms.get(scenario.algorithm).anonymous,
    )


def default_scenario(algorithm: str = "algorithm2", **overrides) -> Scenario:
    """A small, fast scenario with sensible defaults (used by examples)."""
    base = Scenario(
        name=f"default-{algorithm}",
        algorithm=algorithm,
        n_processes=5,
        max_time=120.0,
        stop_when_all_correct_delivered=(algorithm != "algorithm2"),
        stop_when_quiescent=(algorithm == "algorithm2"),
        drain_grace_period=5.0,
    )
    return base.with_(**overrides) if overrides else base
