"""Shared helpers for the experiment modules E1–E10."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..workloads.generators import SingleBroadcast, UniformStream
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


def mean_latency(result: ScenarioResult) -> Optional[float]:
    """Mean URB-delivery latency of a run (``None`` when nothing delivered)."""
    return result.metrics.mean_latency


def max_latency(result: ScenarioResult) -> Optional[float]:
    """Maximum URB-delivery latency of a run."""
    return result.metrics.max_latency


def total_sends(result: ScenarioResult) -> float:
    """Total channel sends of a run."""
    return float(result.metrics.total_sends)


def last_send_time(result: ScenarioResult) -> Optional[float]:
    """Time of the last channel send (the quiescence point, if it quiesces)."""
    return result.quiescence.last_send_time


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


def properties_hold(result: ScenarioResult) -> bool:
    """Whether all three URB properties hold on the run."""
    return result.all_properties_hold


def is_quiescent(result: ScenarioResult) -> bool:
    """Whether the run's quiescence report declared it quiescent."""
    return result.quiescence.quiescent


def mean_of(results: Sequence[ScenarioResult],
            metric: Callable[[ScenarioResult], Optional[float]]) -> Optional[float]:
    """Mean of *metric* over the replications that have one (``None`` if none)."""
    values = [float(v) for v in map(metric, results) if v is not None]
    return sum(values) / len(values) if values else None


def fraction_of(results: Sequence[ScenarioResult],
                predicate: Callable[[ScenarioResult], bool]) -> float:
    """Fraction of the replications satisfying *predicate*."""
    if not results:
        return 0.0
    return sum(1 for r in results if predicate(r)) / len(results)


def multi_sender_workload(n_messages: int = 2, senders: Sequence[int] = (0, 1),
                          interval: float = 1.0) -> UniformStream:
    """Small multi-sender workload used by the correctness matrix."""
    return UniformStream(n_messages, senders=tuple(senders), interval=interval)


def single_broadcast_workload() -> SingleBroadcast:
    """One broadcast by process 0 at time 0 (the canonical latency workload)."""
    return SingleBroadcast(sender=0, time=0.0)


def algorithm1_scenario(**overrides) -> Scenario:
    """Base scenario for Algorithm 1 experiments (early-stops on delivery)."""
    base = Scenario(
        name="algorithm1",
        algorithm="algorithm1",
        n_processes=6,
        max_time=150.0,
        stop_when_all_correct_delivered=True,
        drain_grace_period=0.0,
        workload=single_broadcast_workload(),
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
        workload=single_broadcast_workload(),
    )
    return base.with_(**overrides) if overrides else base
