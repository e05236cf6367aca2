"""Discrete-event simulation substrate for the anonymous system model.

The engine-level names (:class:`SimulationEngine`, :class:`ProcessEnvironment`)
are exported lazily (PEP 562): the engine imports protocol-layer
modules, and loading it eagerly here would create an import cycle when
low-level modules such as :mod:`repro.simulation.simtime` are pulled in by
the protocol layer itself.
"""

from .config import SimulationConfig, StopConditions
from .events import BroadcastCommand, EventKind, EventStats
from .faults import CrashSchedule
from .metrics import LatencySample, MetricsCollector, MetricsLevel, MetricsSummary
from .rng import RandomSource, derive_seed
from .scheduler import EventQueue, SchedulingError
from .simtime import NEVER, SimTime
from .tracing import TraceCategory, TraceEvent, TraceLevel, TraceRecorder

#: Names resolved lazily to avoid import cycles with the protocol layer.
_LAZY_EXPORTS = {
    "SimulationEngine": ("repro.simulation.engine", "SimulationEngine"),
    "SimulationResult": ("repro.simulation.engine", "SimulationResult"),
    "ProcessFactory": ("repro.simulation.engine", "ProcessFactory"),
    "ProcessEnvironment": ("repro.simulation.environment", "ProcessEnvironment"),
}


def __getattr__(name: str):
    """Resolve the lazily exported engine-level names (PEP 562)."""
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(list(globals()) + list(_LAZY_EXPORTS))


__all__ = [
    "BroadcastCommand",
    "CrashSchedule",
    "EventKind",
    "EventQueue",
    "EventStats",
    "LatencySample",
    "MetricsCollector",
    "MetricsLevel",
    "MetricsSummary",
    "NEVER",
    "ProcessEnvironment",
    "ProcessFactory",
    "RandomSource",
    "SchedulingError",
    "SimTime",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationResult",
    "StopConditions",
    "TraceCategory",
    "TraceEvent",
    "TraceLevel",
    "TraceRecorder",
    "derive_seed",
]
