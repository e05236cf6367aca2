"""Schedule controllers: the engine's controlled-nondeterminism interface.

A :class:`ScheduleController` is consulted by the
:class:`~repro.simulation.engine.SimulationEngine` at every nondeterminism
point of a run:

* **per-copy transmission** (``copy_decision``) — whether each copy of a
  broadcast is delivered (and after what delay), dropped, or whether the
  *sender crashes* at that point, mid-broadcast;
* **failure-detector queries** (``atheta_view`` / ``apstar_view``) — what a
  process reads from its AΘ / AP\\* variable.

The base class delegates everything back to the run's own RNG-driven
components (the channel's loss/delay models, the configured oracles), so an
engine with the default controller is bit-identical to one without any — the
parity tests in ``tests/unit/test_explore_controller.py`` assert this on
trace digests.

Strategy controllers (see :mod:`repro.explore.strategies`) instead *choose*
outcomes and record every choice as a **decision**, a small JSON-friendly
tuple:

* ``("deliver", delay)`` — the copy is delivered after ``delay``;
* ``("drop",)`` — the copy is lost;
* ``("crash",)`` — the sender crashes before this copy is handed to its
  channel (the broadcast's remaining copies are never sent);
* ``("fd", query_index, stale_by)`` — failure-detector query number
  ``query_index`` (0-based, counted across both detectors) is answered with
  the oracle's output as of ``stale_by`` time units earlier.

Copy decisions are consumed strictly in order, one per transmission point;
``fd`` decisions are keyed by their query counter.  Both facts make a
recorded trace replayable (:class:`ReplayController`) and shrinkable
(:mod:`repro.explore.shrink`): dropping a decision simply shifts the
remaining ones onto earlier points, and points past the end of the trace
fall back to the channel's own deterministic RNG draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..failure_detectors.base import FailureDetector, FailureDetectorView
from ..simulation.engine import CRASH_SENDER, hash_decisions
from ..simulation.simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.loss import DedupKey
    from ..simulation.engine import SimulationEngine

__all__ = [
    "CRASH",
    "DELIVER",
    "DROP",
    "FD",
    "Decision",
    "DefaultScheduleController",
    "RecordingController",
    "ReplayController",
    "ScheduleController",
    "hash_decisions",
]

#: One recorded choice — see the module docstring for the four shapes.
Decision = tuple

DELIVER = "deliver"
DROP = "drop"
CRASH = "crash"
FD = "fd"


class ScheduleController:
    """Base controller: every decision delegates to the run's own RNG.

    Subclasses override :meth:`copy_decision` (and optionally the two
    failure-detector hooks) to steer the schedule, and expose the choices
    they made through :attr:`decisions`.
    """

    #: Name recorded in the run's :class:`ScheduleProvenance`.
    strategy_name: str = "default"
    #: Position in the strategy's schedule enumeration (0 for non-strategies).
    schedule_index: int = 0

    @property
    def decisions(self) -> Sequence[Decision]:
        """The decisions taken so far (empty for the default controller)."""
        return ()

    def begin_run(self, engine: "SimulationEngine") -> None:
        """Called once before the first event is seeded."""

    def copy_decision(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: Any,
        key: "DedupKey",
        now: SimTime,
    ) -> Any:
        """Fate of one copy: an absolute delivery time, ``None`` (drop), or
        :data:`~repro.simulation.engine.CRASH_SENDER`.

        The engine passes no channel: a controller that leaves a copy to
        the run's loss/delay models resolves it, as this default does, and
        the draws come in exactly the order the uncontrolled paths make
        them; one that decides every copy never builds (or seeds) a channel.
        """
        return engine.network.channel(src, dst).transmit(key, now)

    def atheta_view(
        self, engine: "SimulationEngine", index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        """AΘ output override; ``None`` means "use the configured oracle"."""
        return None

    def apstar_view(
        self, engine: "SimulationEngine", index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        """AP\\* output override; ``None`` means "use the configured oracle"."""
        return None


class DefaultScheduleController(ScheduleController):
    """Explicitly-named alias of the pass-through base controller."""


class RecordingController(ScheduleController):
    """Base for controllers that choose outcomes and record them.

    Parameters
    ----------
    strategy_name, schedule_index:
        Provenance identity of this schedule.
    fairness_bound:
        Soundness guard: after this many *consecutive* drop decisions for
        copies sharing the same ``(src, dst, key)``, the next copy is
        forcibly delivered (with :meth:`_fairness_delay`).  This keeps every
        explored schedule an admissible execution over fair lossy channels,
        so a reported violation is a protocol bug, not an artefact of an
        inadmissible adversary.  ``None`` disables the guard (used when the
        subclass delegates loss to the channel, which guards itself).
    """

    def __init__(
        self,
        strategy_name: str,
        schedule_index: int,
        *,
        fairness_bound: Optional[int] = None,
    ) -> None:
        if fairness_bound is not None and fairness_bound < 1:
            raise ValueError("fairness_bound must be >= 1 when given")
        self.strategy_name = strategy_name
        self.schedule_index = schedule_index
        self._fairness_bound = fairness_bound
        self._decisions: list[Decision] = []
        self._consecutive_drops: dict[tuple[int, int, Any], int] = {}
        self._fd_queries = 0

    @property
    def decisions(self) -> Sequence[Decision]:
        return self._decisions

    # ------------------------------------------------------------------ #
    # copy decisions
    # ------------------------------------------------------------------ #
    def copy_decision(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: Any,
        key: "DedupKey",
        now: SimTime,
    ) -> Any:
        choice = self._choose_copy(engine, src, dst, payload, key, now)
        bound = self._fairness_bound
        if bound is not None:
            ckey = (src, dst, key)
            drops = self._consecutive_drops
            if choice[0] == DROP:
                if drops.get(ckey, 0) >= bound:
                    choice = (DELIVER, self._fairness_delay())
                else:
                    drops[ckey] = drops.get(ckey, 0) + 1
            if choice[0] == DELIVER and ckey in drops:
                del drops[ckey]
        self._decisions.append(choice)
        return self._apply_copy_decision(choice, now)

    @staticmethod
    def _apply_copy_decision(choice: Decision, now: SimTime) -> Any:
        kind = choice[0]
        if kind == DELIVER:
            return now + float(choice[1])
        if kind == DROP:
            return None
        if kind == CRASH:
            return CRASH_SENDER
        raise ValueError(f"unknown copy decision {choice!r}")

    def _choose_copy(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: Any,
        key: "DedupKey",
        now: SimTime,
    ) -> Decision:
        """Subclass hook: return one copy decision tuple."""
        raise NotImplementedError

    def _fairness_delay(self) -> float:
        """Delay used for fairness-guard forced deliveries."""
        return 0.1

    # ------------------------------------------------------------------ #
    # failure-detector decisions
    # ------------------------------------------------------------------ #
    def atheta_view(
        self, engine: "SimulationEngine", index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        return self._fd_decision(engine.atheta, index, now)

    def apstar_view(
        self, engine: "SimulationEngine", index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        return self._fd_decision(engine.apstar, index, now)

    def _fd_decision(
        self, detector: Optional[FailureDetector], index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        query = self._fd_queries
        self._fd_queries += 1
        if detector is None:
            return None
        stale_by = self._choose_fd_staleness(query, index, now)
        if stale_by is None or stale_by <= 0:
            return None
        self._decisions.append((FD, query, float(stale_by)))
        return detector.view(index, max(0.0, now - float(stale_by)))

    def _choose_fd_staleness(
        self, query: int, index: int, now: SimTime
    ) -> Optional[float]:
        """Subclass hook: staleness (in time units) for this FD query, or
        ``None`` to pass the query through to the oracle unmodified.

        Staleness is the one perturbation that is *always* admissible: a
        view from ``stale_by`` time units ago is exactly what a detector
        with correspondingly larger detection/learning delays would output,
        so AΘ/AP\\* keep their formal properties on the perturbed run.
        """
        return None


class ReplayController(ScheduleController):
    """Replays a recorded decision trace exactly.

    Copy decisions are consumed in order; once the trace is exhausted (or
    for points a shrink removed), decisions fall back to the channel's own
    RNG draws — deterministic for a given scenario seed, so a truncated
    trace still yields one well-defined execution, and the only channels a
    replay builds are those of that tail.  The decisions actually taken
    (replayed + fallback) are re-recorded, which is what makes a shrunk
    counterexample's hash stable when it is serialised back out.
    """

    strategy_name = "replay"

    def __init__(self, decisions: Sequence[Decision],
                 schedule_index: int = 0) -> None:
        self.schedule_index = schedule_index
        self._copy_queue: list[Decision] = []
        self._fd_staleness: dict[int, float] = {}
        for decision in decisions:
            kind = decision[0]
            if kind in (DELIVER, DROP, CRASH):
                self._copy_queue.append(tuple(decision))
            elif kind == FD:
                self._fd_staleness[int(decision[1])] = float(decision[2])
            else:
                raise ValueError(f"unknown decision {decision!r}")
        self._position = 0
        self._fd_queries = 0
        self._taken: list[Decision] = []

    @property
    def decisions(self) -> Sequence[Decision]:
        return self._taken

    def copy_decision(
        self,
        engine: "SimulationEngine",
        src: int,
        dst: int,
        payload: Any,
        key: "DedupKey",
        now: SimTime,
    ) -> Any:
        if self._position < len(self._copy_queue):
            choice = self._copy_queue[self._position]
            self._position += 1
            self._taken.append(choice)
            return RecordingController._apply_copy_decision(choice, now)
        deliver_time = engine.network.channel(src, dst).transmit(key, now)
        if deliver_time is None:
            self._taken.append((DROP,))
        else:
            self._taken.append((DELIVER, deliver_time - now))
        return deliver_time

    def atheta_view(
        self, engine: "SimulationEngine", index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        return self._fd_replay(engine.atheta, index, now)

    def apstar_view(
        self, engine: "SimulationEngine", index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        return self._fd_replay(engine.apstar, index, now)

    def _fd_replay(
        self, detector: Optional[FailureDetector], index: int, now: SimTime
    ) -> Optional[FailureDetectorView]:
        query = self._fd_queries
        self._fd_queries += 1
        stale_by = self._fd_staleness.get(query)
        if detector is None or stale_by is None:
            return None
        self._taken.append((FD, query, float(stale_by)))
        return detector.view(index, max(0.0, now - stale_by))
