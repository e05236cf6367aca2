"""Pluggable component registries.

This package is the library's extension surface.  The registries map names
to component specs; everything that used to be a hardcoded tuple or an
``if``/``elif`` dispatch chain now resolves through them:

* :data:`algorithms` — broadcast protocols (``Scenario.algorithm``),
* :data:`channels` — channel families (``Scenario.channel_type``),
* :data:`detector_setups` — failure-detector wiring (``Scenario.detector_setup``),
* :data:`workloads` — workload presets (``Scenario.workload`` by name),
* :data:`strategies` — schedule-exploration strategies
  (``Scenario.explore_strategy``; see :mod:`repro.explore`),
* :data:`engines` — simulation-engine backends (``Scenario.engine``; see
  :mod:`repro.simulation.backends`).

:func:`all_registries` enumerates them in a stable order, so the CLI's
``components`` listing and anything else that wants "every registry" stays
correct when a new one is added — no per-site edits.

Registering a component makes it a first-class citizen of
:class:`~repro.experiments.config.Scenario` validation, the scenario runner,
the CLI's ``--algorithm`` choices, sweeps and the parallel batch runner.
Every registry registers the same way, through
:meth:`Registry.decorator`; the ``register_*`` names are those bound
methods::

    from repro.registry import register_algorithm

    @register_algorithm("gossip_k", description="bounded gossip broadcast")
    def build_gossip(scenario, index, env):
        return GossipKProcess(env, rounds=scenario.metadata.get("gossip_rounds", 3))

    result = run_scenario(Scenario(algorithm="gossip_k"))

Look components up on the registry itself: ``algorithms.get("algorithm2")``,
``engines.names()``.

Built-in components live in :mod:`repro.registry.builtins` and are loaded
lazily on the first registry read, so importing this package is cheap and
free of import cycles.

When running suites with ``parallel > 1`` the worker *processes* must also
perform third-party registrations; pass the registering module names as
``worker_plugins`` to :meth:`repro.experiments.batch.ScenarioSuite.run`.
"""

from __future__ import annotations

from typing import Any

from .base import (
    DuplicateComponentError,
    Registry,
    RegistryError,
    UnknownComponentError,
)
from .specs import (
    AlgorithmSpec,
    ChannelSpec,
    DetectorSetupSpec,
    EngineSpec,
    StrategySpec,
    WorkloadSpec,
)

__all__ = [
    "AlgorithmSpec",
    "ChannelSpec",
    "DetectorSetupSpec",
    "DuplicateComponentError",
    "EngineSpec",
    "Registry",
    "RegistryError",
    "StrategySpec",
    "UnknownComponentError",
    "WorkloadSpec",
    "algorithms",
    "all_registries",
    "channels",
    "detector_setups",
    "engines",
    "register_algorithm",
    "register_channel",
    "register_detector_setup",
    "register_engine",
    "register_strategy",
    "register_workload",
    "strategies",
    "workloads",
]

_BUILTINS = f"{__name__}.builtins"

#: Broadcast protocols, selectable via ``Scenario.algorithm``.
algorithms: Registry[AlgorithmSpec] = Registry(
    "algorithm", AlgorithmSpec, loader=_BUILTINS)
#: Channel families, selectable via ``Scenario.channel_type``.
channels: Registry[ChannelSpec] = Registry(
    "channel type", ChannelSpec, loader=_BUILTINS)
#: Failure-detector setups, selectable via ``Scenario.detector_setup``.
detector_setups: Registry[DetectorSetupSpec] = Registry(
    "detector setup", DetectorSetupSpec, loader=_BUILTINS)
#: Workload presets, selectable by passing their name as ``Scenario.workload``.
workloads: Registry[WorkloadSpec] = Registry(
    "workload", WorkloadSpec, loader=_BUILTINS)
#: Schedule-exploration strategies, selectable via ``Scenario.explore_strategy``.
#: The built-ins live with the explore subsystem (they are controllers
#: first, registry entries second).
strategies: Registry[StrategySpec] = Registry(
    "exploration strategy", StrategySpec, loader="repro.explore.strategies")
#: Simulation-engine backends, selectable via ``Scenario.engine``.  The
#: built-ins live with the simulation subsystem.
engines: Registry[EngineSpec] = Registry(
    "engine backend", EngineSpec, loader="repro.simulation.backends")

#: ``(scenario, index, env) -> protocol``.
register_algorithm = algorithms.decorator
#: ``(scenario, crash_schedule) -> channel factory``.
register_channel = channels.decorator
#: ``(scenario, crash_schedule, random_source) -> (atheta, apstar)``.
register_detector_setup = detector_setups.decorator
#: ``(scenario, rng) -> workload``.
register_workload = workloads.decorator
#: ``(scenario, schedule_index) -> controller``.
register_strategy = strategies.decorator
#: ``(**engine_kwargs) -> engine``.  Backends must be bit-identical to
#: ``reference`` on every parity-suite scenario (see
#: :mod:`repro.experiments.parity`); they may only differ in *how* they
#: dispatch, never in *what* they compute.
register_engine = engines.decorator

#: Every registry, keyed by the title ``repro-urb components`` shows, in the
#: order the tables render.  THE single enumeration point: new registries are
#: added here once and every data-driven consumer (CLI listing, docs, error
#: summaries) picks them up.
_ALL_REGISTRIES: dict[str, Registry[Any]] = {
    "Algorithms": algorithms,
    "Channel families": channels,
    "Failure-detector setups": detector_setups,
    "Workload presets": workloads,
    "Exploration strategies": strategies,
    "Engine backends": engines,
}


def all_registries() -> dict[str, Registry[Any]]:
    """Every component registry, keyed by display title, in display order."""
    return dict(_ALL_REGISTRIES)
