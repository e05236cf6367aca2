"""Registry of the experiments E1–E10.

Every experiment module exposes ``EXPERIMENT_ID``, ``TITLE`` and a
``run(seeds=None, quick=False) -> ExperimentResult`` function; the registry
maps identifiers to those modules so the CLI and ``EXPERIMENTS.md``
generation drive the same code.
"""

from __future__ import annotations

from types import ModuleType
from typing import Optional

from . import (
    ablations,
    baseline_comparison,
    correctness,
    crash_tolerance,
    detector_delay,
    impossibility,
    latency_vs_loss,
    message_complexity,
    quiescence_time,
    scalability,
)
from .report import ExperimentResult

_MODULES = (
    correctness,
    latency_vs_loss,
    message_complexity,
    quiescence_time,
    scalability,
    impossibility,
    detector_delay,
    crash_tolerance,
    baseline_comparison,
    ablations,
)

REGISTRY: dict[str, ModuleType] = {
    module.EXPERIMENT_ID: module for module in _MODULES
}


def experiment_ids() -> list[str]:
    """All registered experiment identifiers, in numeric order."""
    return sorted(REGISTRY, key=lambda eid: int(eid.lstrip("E")))


def get_experiment(experiment_id: str) -> ModuleType:
    """Look up one experiment (case-insensitive, 'e3' and '3' accepted)."""
    normalised = experiment_id.upper()
    if not normalised.startswith("E"):
        normalised = f"E{normalised}"
    try:
        return REGISTRY[normalised]
    except KeyError:
        valid = ", ".join(experiment_ids())
        raise KeyError(
            f"unknown experiment {experiment_id!r}; valid ids: {valid}"
        ) from None


def run_experiment(experiment_id: str, *, seeds: Optional[int] = None,
                   quick: bool = False) -> ExperimentResult:
    """Run one experiment by id."""
    return get_experiment(experiment_id).run(seeds=seeds, quick=quick)


def run_all(*, seeds: Optional[int] = None, quick: bool = False,
            ids: Optional[list[str]] = None) -> list[ExperimentResult]:
    """Run several (default: all) experiments and return their results."""
    targets = ids if ids is not None else experiment_ids()
    return [run_experiment(eid, seeds=seeds, quick=quick) for eid in targets]
