"""Built-in schedule-exploration strategies.

Each strategy is a factory ``(scenario, schedule_index) -> controller``
registered in :data:`repro.registry.strategies`; schedule *index* selects one
schedule out of the strategy's (seeded or enumerated) space, so the explorer
simply fans ``explore_index = 0 .. budget-1`` out over the batch runner.

Soundness
---------
Strategies only take decisions that keep the execution *admissible* for the
paper's system model, so a violation found by the explorer is a protocol
bug, never an artefact of an impossible adversary:

* drops are fairness-bounded per ``(channel, payload)`` — every explored
  channel behaves as a fair lossy channel (§II);
* delays are finite and bounded by the scenario's delay lattice — admissible
  in an asynchronous system regardless of the configured delay distribution;
* injected crashes respect the algorithm's declared assumptions
  (``requires_majority``) and are disabled for algorithms that consult
  failure detectors, whose oracles are built from the *declared* crash
  schedule and would silently become inaccurate;
* failure-detector perturbation is limited to bounded *staleness*, which is
  indistinguishable from a detector with larger detection/learning delays
  and therefore preserves the AΘ/AP\\* properties.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..network.fair_lossy import DEFAULT_FAIRNESS_BOUND
from ..registry import algorithms, register_strategy
from ..simulation.rng import derive_seed
from .controller import CRASH, DELIVER, DROP, Decision, RecordingController

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.config import Scenario
    from ..network.loss import DedupKey
    from ..simulation.engine import SimulationEngine
    from ..simulation.simtime import SimTime

__all__ = [
    "CrashPointController",
    "DelayBoundController",
    "PctController",
    "RandomWalkController",
    "crash_budget",
    "delay_lattice",
]


def delay_lattice(scenario: "Scenario", points: int = 4) -> tuple[float, ...]:
    """Quantised delay choices derived from the scenario's delay spec.

    Strategies pick delays from this lattice instead of sampling the spec's
    distribution: the values stay within (or near) the configured range, so
    explored delays remain plausible for the scenario while covering its
    extremes deterministically.
    """
    spec = scenario.delay
    params = spec.params
    if spec.kind == "fixed":
        return (float(params.get("delay", 1.0)),)
    if spec.kind == "uniform":
        low = float(params.get("low", 0.1))
        high = float(params.get("high", 1.0))
        if points < 2 or high <= low:
            return (low,)
        step = (high - low) / (points - 1)
        return tuple(low + i * step for i in range(points))
    if spec.kind == "exponential":
        mean = float(params.get("mean", 0.5))
        cap = params.get("cap")
        top = float(cap) if cap is not None else 4.0 * mean
        return (0.25 * mean, mean, 2.0 * mean, top)
    # Custom specs expose no parameters; fall back to a small generic lattice.
    return (0.05, 0.25, 1.0)


def crash_budget(scenario: "Scenario") -> int:
    """How many *extra* crashes a strategy may inject into *scenario*.

    Zero for algorithms that consult failure detectors (their oracles are
    built from the declared crash schedule; an injected crash the oracle
    does not know about would make the detectors inaccurate and the run
    inadmissible).  Otherwise, enough head-room is left to respect the
    algorithm's ``requires_majority`` assumption and the model's "at least
    one correct process".
    """
    spec = algorithms.get(scenario.algorithm)
    if spec.uses_failure_detectors:
        return 0
    n = scenario.n_processes
    allowed = (n - 1) // 2 if spec.requires_majority else n - 1
    return max(0, allowed - len(scenario.crashes))


def _strategy_rng(scenario: "Scenario", strategy: str,
                  schedule_index: int) -> random.Random:
    """Deterministic RNG for one (scenario seed, strategy, index) schedule."""
    return random.Random(
        derive_seed(scenario.seed, f"explore:{strategy}:{schedule_index}")
    )


def _sound_fairness_bound(scenario: "Scenario") -> int:
    # A scenario may disable the channel-level guard; strategies still need
    # one for soundness, so fall back to the library default.
    bound = scenario.fairness_bound
    return bound if bound is not None else DEFAULT_FAIRNESS_BOUND


# --------------------------------------------------------------------------- #
# seeded strategies
#
# Each controller class is its own registered factory: its constructor takes
# ``(scenario, schedule_index)``.
# --------------------------------------------------------------------------- #
@register_strategy(
    "random_walk",
    description="Seeded random walk over drop/delay/crash/FD-staleness choices",
)
class RandomWalkController(RecordingController):
    """Seeded random walk over drop / delay / crash / FD-staleness choices.

    Tunables (``scenario.metadata``):

    * ``explore_drop_probability`` (default ``0.25``)
    * ``explore_crash_probability`` (default ``0.05``; only spent while the
      scenario's :func:`crash_budget` allows)
    * ``explore_fd_stale_probability`` (default ``0.0``; opt-in)
    * ``explore_fd_stale_by`` (default: the scenario's FD detection delay)
    """

    def __init__(self, scenario: "Scenario", schedule_index: int) -> None:
        super().__init__(
            "random_walk", schedule_index,
            fairness_bound=_sound_fairness_bound(scenario),
        )
        metadata = scenario.metadata
        self._rng = _strategy_rng(scenario, "random_walk", schedule_index)
        self._drop_probability = float(
            metadata.get("explore_drop_probability", 0.25)
        )
        self._crash_probability = float(
            metadata.get("explore_crash_probability", 0.05)
        )
        self._fd_stale_probability = float(
            metadata.get("explore_fd_stale_probability", 0.0)
        )
        self._fd_stale_by = float(
            metadata.get("explore_fd_stale_by", scenario.fd_detection_delay)
        )
        self._lattice = delay_lattice(scenario)
        self._crash_budget = crash_budget(scenario)
        self._scenario_crashes = frozenset(scenario.crashes)

    def _choose_copy(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: object,
        key: "DedupKey",
        now: "SimTime",
    ) -> Decision:
        rng = self._rng
        if (
            self._crash_budget > 0
            and self._crash_probability > 0
            and rng.random() < self._crash_probability
        ):
            if src not in self._scenario_crashes:
                # Crashing an already-declared-faulty process early does not
                # enlarge the run's faulty set, so it costs no budget.
                self._crash_budget -= 1
            return (CRASH,)
        if rng.random() < self._drop_probability:
            return (DROP,)
        return (DELIVER, rng.choice(self._lattice))

    def _fairness_delay(self) -> float:
        return self._lattice[0]

    def _choose_fd_staleness(
        self, query: int, index: int, now: "SimTime"
    ) -> Optional[float]:
        if self._fd_stale_probability <= 0:
            return None
        if self._rng.random() < self._fd_stale_probability:
            return self._fd_stale_by
        return None


@register_strategy(
    "pct",
    description="PCT-style channel priorities with d-1 change points "
                "(pure message reordering)",
)
class PctController(RecordingController):
    """PCT-style priority scheduling of message copies.

    Every directed channel gets a random priority; a copy's delay grows with
    its channel's priority rank, so low-priority channels consistently
    deliver later — the delay-space analogue of PCT's priority-based
    scheduler.  At ``d - 1`` random change points (``d`` =
    ``explore_pct_depth``, default 3) the priorities are reshuffled, which is
    what lets the strategy hit bugs requiring a small number of specific
    ordering inversions.  PCT schedules never drop copies or crash
    processes: they explore pure message reorderings.
    """

    def __init__(self, scenario: "Scenario", schedule_index: int) -> None:
        super().__init__("pct", schedule_index, fairness_bound=None)
        metadata = scenario.metadata
        self._rng = _strategy_rng(scenario, "pct", schedule_index)
        depth = int(metadata.get("explore_pct_depth", 3))
        if depth < 1:
            raise ValueError("explore_pct_depth must be >= 1")
        horizon = int(metadata.get("explore_pct_horizon", 1000))
        self._n = scenario.n_processes
        lattice = delay_lattice(scenario)
        low, high = lattice[0], lattice[-1]
        if high <= low:
            # Degenerate (fixed-delay) lattice: open a span around it so
            # priorities can still express an ordering.
            high = low * 1.5 + 1e-3
        self._low, self._span = low, high - low
        self._change_points = frozenset(
            self._rng.sample(range(1, max(2, horizon)), min(depth - 1, horizon - 1))
        )
        self._copy_points = 0
        self._priorities: dict[tuple[int, int], int] = {}
        self._shuffle_priorities()

    def _shuffle_priorities(self) -> None:
        pairs = [(s, d) for s in range(self._n) for d in range(self._n)]
        self._rng.shuffle(pairs)
        self._priorities = {pair: rank for rank, pair in enumerate(pairs)}

    def _choose_copy(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: object,
        key: "DedupKey",
        now: "SimTime",
    ) -> Decision:
        point = self._copy_points
        self._copy_points = point + 1
        if point in self._change_points:
            self._shuffle_priorities()
        rank = self._priorities[(src, dst)]
        n_pairs = self._n * self._n
        delay = self._low + self._span * (rank + 1) / n_pairs
        return (DELIVER, delay)


# --------------------------------------------------------------------------- #
# enumerative strategies (small configs)
# --------------------------------------------------------------------------- #
def _enum_choices(scenario: "Scenario") -> tuple[float, ...]:
    lattice = delay_lattice(scenario)
    choices = int(scenario.metadata.get("explore_enum_choices", 2))
    if choices < 1:
        raise ValueError("explore_enum_choices must be >= 1")
    if choices >= len(lattice):
        return lattice
    if choices == 1:
        return (lattice[0],)
    step = (len(lattice) - 1) / (choices - 1)
    return tuple(lattice[round(i * step)] for i in range(choices))


def delay_bound_schedule_count(scenario: "Scenario") -> int:
    """Size of the ``delay_bound`` schedule space for *scenario*."""
    points = int(scenario.metadata.get("explore_enum_points", 6))
    return max(1, len(_enum_choices(scenario)) ** max(0, points))


@register_strategy(
    "delay_bound",
    description="Exhaustive delay enumeration over the first K transmissions "
                "(small configs)",
    enumerative=True,
    schedule_count=delay_bound_schedule_count,
)
class DelayBoundController(RecordingController):
    """Exhaustive delay enumeration over the first *K* transmission points.

    The first ``explore_enum_points`` (default 6) copies each take one of
    ``explore_enum_choices`` (default 2) lattice delays; ``schedule_index``
    is decoded as a base-``choices`` numeral selecting one combination.
    Later copies take the smallest lattice delay, keeping the tail
    deterministic.  With defaults this is a complete search of ``2^6``
    prefix orderings — model checking in miniature for small configs.
    """

    def __init__(self, scenario: "Scenario", schedule_index: int) -> None:
        super().__init__("delay_bound", schedule_index, fairness_bound=None)
        self._choices = _enum_choices(scenario)
        self._points = int(scenario.metadata.get("explore_enum_points", 6))
        count = delay_bound_schedule_count(scenario)
        if not (0 <= schedule_index < count):
            raise ValueError(
                f"schedule_index {schedule_index} out of range for "
                f"{count} delay_bound schedules"
            )
        digits: list[int] = []
        base = len(self._choices)
        remaining = schedule_index
        for _ in range(self._points):
            digits.append(remaining % base)
            remaining //= base
        self._digits = digits
        self._copy_points = 0

    def _choose_copy(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: object,
        key: "DedupKey",
        now: "SimTime",
    ) -> Decision:
        point = self._copy_points
        self._copy_points = point + 1
        if point < self._points:
            return (DELIVER, self._choices[self._digits[point]])
        return (DELIVER, self._choices[0])


def crash_point_schedule_count(scenario: "Scenario") -> int:
    """Size of the ``crash_points`` schedule space for *scenario*."""
    if crash_budget(scenario) < 1:
        return 0
    steps = int(scenario.metadata.get("explore_crash_steps", 20))
    eligible = [
        i for i in range(scenario.n_processes) if i not in scenario.crashes
    ]
    return len(eligible) * max(1, steps)


@register_strategy(
    "crash_points",
    description="Enumerates one injected crash per schedule: victim x "
                "transmission step (detector-free algorithms)",
    enumerative=True,
    schedule_count=crash_point_schedule_count,
    # Loss/delay delegate to the channels, so the scenario's own loss spec
    # applies (unlike the decision-driven strategies, which decide every
    # copy's fate themselves).
    channel_loss=True,
)
class CrashPointController(RecordingController):
    """Enumerates single-crash schedules: victim × transmission step.

    Schedule ``index`` crashes process ``eligible[index // steps]`` just
    before its ``index % steps``-th transmission (``steps`` =
    ``explore_crash_steps``, default 20), covering crashes in the middle of
    a broadcast — the adversarial timing the paper's uniformity arguments
    hinge on.  Loss and delay are left to the channels' own (seeded) models,
    so the enumeration isolates the crash-timing dimension.
    """

    def __init__(self, scenario: "Scenario", schedule_index: int) -> None:
        super().__init__("crash_points", schedule_index, fairness_bound=None)
        count = crash_point_schedule_count(scenario)
        if count == 0:
            raise ValueError(
                "crash_points requires room for one injected crash: a "
                "detector-free algorithm whose assumptions allow another "
                "faulty process (see repro.explore.strategies.crash_budget)"
            )
        if not (0 <= schedule_index < count):
            raise ValueError(
                f"schedule_index {schedule_index} out of range for "
                f"{count} crash_points schedules"
            )
        steps = max(1, int(scenario.metadata.get("explore_crash_steps", 20)))
        eligible = [
            i for i in range(scenario.n_processes) if i not in scenario.crashes
        ]
        self._victim = eligible[schedule_index // steps]
        self._step = schedule_index % steps
        self._victim_sends = 0
        self._crashed = False

    def _choose_copy(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: object,
        key: "DedupKey",
        now: "SimTime",
    ) -> Decision:
        if src == self._victim and not self._crashed:
            point = self._victim_sends
            self._victim_sends = point + 1
            if point == self._step:
                self._crashed = True
                return (CRASH,)
        deliver_time = engine.network.channel(src, dst).transmit(key, now)
        if deliver_time is None:
            return (DROP,)
        return (DELIVER, deliver_time - now)
