"""Shared helpers for the experiment modules E1–E10."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .config import Scenario
from .runner import ScenarioResult

#: Default number of replications per experiment point.
DEFAULT_SEEDS = 3
#: Reduced replication count used by ``quick=True`` (benchmarks, smoke runs).
QUICK_SEEDS = 1


def seeds_for(quick: bool, seeds: Optional[int]) -> int:
    """Resolve the replication count for an experiment invocation."""
    if seeds is not None:
        if seeds < 1:
            raise ValueError("seeds must be positive")
        return seeds
    return QUICK_SEEDS if quick else DEFAULT_SEEDS


def crash_last(n_processes: int, n_crashes: int, time: float = 0.0) -> dict[int, float]:
    """Crash the *last* ``n_crashes`` process indices at *time*.

    Crashing the highest indices keeps process 0 (the default broadcaster)
    correct, so Validity stays checkable across the whole sweep.
    """
    if n_crashes < 0:
        raise ValueError("n_crashes must be non-negative")
    if n_crashes >= n_processes:
        raise ValueError("at least one process must remain correct")
    return {n_processes - 1 - i: time for i in range(n_crashes)}


def delivered_fraction(result: ScenarioResult) -> float:
    """Fraction of correct processes that delivered *every* expected content."""
    expected = set(result.simulation.expected_contents)
    correct = result.simulation.correct_indices()
    if not expected or not correct:
        return 0.0
    complete = 0
    for index in correct:
        delivered = result.simulation.delivery_logs[index].content_set()
        if expected <= delivered:
            complete += 1
    return complete / len(correct)


def all_correct_delivered(result: ScenarioResult) -> bool:
    """Whether every correct process delivered every expected content."""
    return delivered_fraction(result) == 1.0


def mean_of(results: Sequence[ScenarioResult],
            metric: Callable[[ScenarioResult], Optional[float]]) -> Optional[float]:
    """Mean of *metric* over the replications that have one (``None`` if none)."""
    values = [float(v) for v in map(metric, results) if v is not None]
    return sum(values) / len(values) if values else None


def count_of(results: Sequence[ScenarioResult],
             predicate: Callable[[ScenarioResult], bool]) -> int:
    """Number of the replications satisfying *predicate*."""
    return sum(1 for r in results if predicate(r))


def fraction_of(results: Sequence[ScenarioResult],
                predicate: Callable[[ScenarioResult], bool]) -> float:
    """Fraction of the replications satisfying *predicate*."""
    if not results:
        return 0.0
    return count_of(results, predicate) / len(results)


def algorithm1_scenario(**overrides) -> Scenario:
    """Base scenario for Algorithm 1 experiments (early-stops on delivery)."""
    base = Scenario(
        name="algorithm1",
        algorithm="algorithm1",
        n_processes=6,
        max_time=150.0,
        stop_when_all_correct_delivered=True,
        drain_grace_period=0.0,
    )
    return base.with_(**overrides) if overrides else base


def algorithm2_scenario(**overrides) -> Scenario:
    """Base scenario for Algorithm 2 experiments (early-stops on quiescence)."""
    base = Scenario(
        name="algorithm2",
        algorithm="algorithm2",
        n_processes=6,
        max_time=150.0,
        stop_when_quiescent=True,
        drain_grace_period=3.0,
    )
    return base.with_(**overrides) if overrides else base
