"""The discrete-event simulation engine.

:class:`SimulationEngine` wires together the pieces of one run — processes,
anonymous network, crash schedule, failure-detector oracles, workload,
tracing and metrics — and drives the event loop until the horizon, an
early-stop predicate, or an explicit stop request.

The engine is deliberately protocol-agnostic: protocols only see their
:class:`~repro.simulation.environment.ProcessEnvironment`, and the engine
only calls the three :class:`~repro.core.interfaces.BroadcastProtocol`
entry points (``urb_broadcast``, ``on_receive``, ``on_tick``).

Two places carry nearly all of a run's cost, and both are written flat
(DESIGN.md §8.1, §8.2).  :meth:`SimulationEngine.run` pops queue entries
itself and handles ``RECEIVE`` — nearly every event — in place: crashed
check, then the handler the process's ``receive_table`` names for the
payload's class; the four rare kinds go through
:meth:`SimulationEngine._dispatch`, which the batched backend's loop calls
too.  :meth:`SimulationEngine.broadcast_from` decides every copy's fate,
then books the broadcast once: one trace call, one queue call, two metrics
calls, whatever the fan-out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Optional, Sequence,
)

from .. import obs
from ..core.delivery import DeliveryLog
from ..core.interfaces import BroadcastProtocol
from ..core.messages import TaggedMessage, payload_kind
from ..failure_detectors.base import FailureDetector, FailureDetectorView
from ..network.network import Network
from .config import SimulationConfig
from .environment import ProcessEnvironment
from .events import BroadcastCommand, EventKind, EventStats
from .faults import CrashSchedule
from .metrics import MetricsCollector, MetricsSummary
from .rng import RandomSource
from .scheduler import EventQueue, reject_time
from .simtime import SimTime
from .tracing import TraceCategory, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..explore.controller import ScheduleController

#: Sentinel a :class:`~repro.explore.controller.ScheduleController` returns
#: from ``copy_decision`` to crash the *sender* at that transmission point
#: (the remaining copies of the broadcast are never handed to their channels,
#: modelling a crash in the middle of the broadcast primitive).
CRASH_SENDER: Any = object()

#: Bound once for the event loop.
_RECEIVE = EventKind.RECEIVE
_CHANNEL_DELIVER = TraceCategory.CHANNEL_DELIVER


def hash_decisions(decisions: Sequence[Sequence[Any]]) -> str:
    """Canonical hash of a schedule's decision trace.

    Two executions are *the same schedule* exactly when their decision traces
    hash equally; the explorer deduplicates on this value and counterexample
    artifacts carry it so a replay can be checked against its origin.
    Lists and tuples serialise alike, so the trace is dumped as given.
    """
    canonical = json.dumps(decisions, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class ScheduleProvenance:
    """Where a run's schedule came from — enough to replay it exactly.

    Every :class:`SimulationResult` carries one.  For ordinary RNG-driven
    runs the strategy is ``"default"`` and the decision trace is empty: the
    run is reproduced by its scenario fields plus *seed* alone.  For runs
    driven by a :class:`~repro.explore.controller.ScheduleController` the
    trace holds every decision the controller took, so the run can be
    replayed bit-identically from the artifact even when the strategy code
    changes.
    """

    strategy: str
    seed: int
    schedule_index: int
    decision_count: int
    schedule_hash: str
    decisions: tuple = ()

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly summary (the decision list itself is serialised
        separately by counterexample artifacts)."""
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "schedule_index": self.schedule_index,
            "decision_count": self.decision_count,
            "schedule_hash": self.schedule_hash,
        }


class ExecutionRecord(NamedTuple):
    """How one run ran, built once by :meth:`SimulationEngine._finish_run`
    and carried on the result.  No fingerprint includes it: the engines
    reproduce a scenario bit-identically along different paths.

    ``dispatch_mode`` is the loop :meth:`SimulationEngine.run` took
    (``"batched"``/``"per-event"``), ``consume_mode`` how the batched loop
    consumed deliveries (``"batched"`` through the repeat filter,
    ``"boxed"`` every reception replayed, ``None`` per-event),
    ``fallback_reason`` why a batching backend took the per-event loop, and
    ``rows_fated`` the rows the network fated as rows
    (``Network.fated_sources``).  The rest are the batched loop's counts,
    0 on the per-event loop: source rows fated one send at a time, sampler
    calls (one per non-empty outbox flush), flushes shared by the TICKs of
    one instant and such TICK runs cut short by a due copy, and pool
    entries consumed and, of those, replayed through the handlers.
    """

    engine: str
    dispatch_mode: str
    consume_mode: Optional[str]
    fallback_reason: Optional[str]
    rows_fated: int
    generic_rows: int = 0
    sampler_calls: int = 0
    tick_flushes_shared: int = 0
    tick_runs_cut: int = 0
    consumed: int = 0
    replayed: int = 0


#: Factory building the protocol process for index ``i`` given its
#: environment.  The index is provided so that *builders* (not the processes
#: themselves) can construct identified baselines; anonymous protocols must
#: ignore it.
ProcessFactory = Callable[[int, ProcessEnvironment], BroadcastProtocol]


@dataclass(slots=True)
class SimulationResult:
    """Everything observable about a finished run."""

    config: SimulationConfig
    crash_schedule: CrashSchedule
    trace: TraceRecorder
    metrics: MetricsCollector
    delivery_logs: dict[int, DeliveryLog]
    processes: dict[int, BroadcastProtocol]
    expected_contents: tuple[Any, ...]
    final_time: SimTime
    stop_reason: str
    execution: ExecutionRecord
    event_stats: EventStats = field(default_factory=EventStats)
    schedule: Optional[ScheduleProvenance] = None

    @property
    def n_processes(self) -> int:
        """Number of processes in the run."""
        return self.config.n_processes

    def correct_indices(self) -> tuple[int, ...]:
        """Indices of the correct processes."""
        return self.crash_schedule.correct_indices()

    def deliveries_of(self, index: int) -> list[Any]:
        """Application contents delivered by process *index*, in order."""
        return self.delivery_logs[index].contents()

    def metrics_summary(self) -> MetricsSummary:
        """Aggregate metrics of the run."""
        return self.metrics.summary()

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        summary = self.metrics_summary()
        return (
            f"run(n={self.n_processes}, crashes={self.crash_schedule.n_faulty}, "
            f"deliveries={summary.deliveries}, sends={summary.total_sends}, "
            f"finished@{self.final_time:g}, reason={self.stop_reason})"
        )


class SimulationEngine:
    """Drives one simulated run of an anonymous broadcast protocol.

    Observability: the engine records aggregate run counters into the
    :mod:`repro.obs` registry **once per run**, from the run's
    :class:`ExecutionRecord` at the end of :meth:`run` — never inside the
    dispatch loop — so the disabled cost is a single flag check per
    simulation and the hot path is untouched.

    Parameters
    ----------
    config:
        Engine-level parameters (n, tick period, horizon, seed, stopping).
    network:
        The anonymous network (channels + broadcast primitive).
    process_factory:
        Builds the protocol instance for each process index.
    crash_schedule:
        The run's failure pattern; defaults to "no crashes".
    workload:
        Application-level broadcast commands to inject.
    atheta / apstar:
        Failure-detector oracles consulted by the processes' environments;
        ``None`` yields empty views (Algorithm 1 never reads them).
    trace / metrics:
        Optional pre-built recorders (auto-created otherwise).
    trace_ticks:
        Whether to record a trace event per retransmission round.  Disabled
        by default because tick events dominate trace size without adding
        information (sends are traced individually anyway).
    controller:
        Optional :class:`~repro.explore.controller.ScheduleController`
        consulted at the run's nondeterminism points (per-copy loss/delay,
        mid-broadcast crashes, failure-detector query outcomes).  ``None``
        (the default) keeps the historic RNG-driven hot paths untouched.
    """

    #: Registry label of this backend ("reference" for the per-event
    #: engine; subclasses registered under other names override it).
    engine_label = "reference"

    #: The run's path (:class:`ExecutionRecord`), decided before its loop
    #: starts; a batching backend sets them.
    dispatch_mode: str = "per-event"
    consume_mode: Optional[str] = None
    _fallback: Optional[str] = None

    def __init__(
        self,
        config: SimulationConfig,
        network: Network,
        process_factory: ProcessFactory,
        *,
        crash_schedule: Optional[CrashSchedule] = None,
        workload: Iterable[BroadcastCommand] = (),
        atheta: Optional[FailureDetector] = None,
        apstar: Optional[FailureDetector] = None,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsCollector] = None,
        trace_ticks: bool = False,
        controller: Optional["ScheduleController"] = None,
    ) -> None:
        if network.n_processes != config.n_processes:
            raise ValueError(
                f"network size ({network.n_processes}) does not match config "
                f"({config.n_processes})"
            )
        self.config = config
        self.network = network
        self.crash_schedule = crash_schedule or CrashSchedule.none(config.n_processes)
        if self.crash_schedule.n_processes != config.n_processes:
            raise ValueError("crash schedule size does not match config")
        self.workload: tuple[BroadcastCommand, ...] = tuple(workload)
        for command in self.workload:
            if command.sender >= config.n_processes:
                raise ValueError(
                    f"workload sender {command.sender} out of range for "
                    f"n={config.n_processes}"
                )
        self.atheta = atheta
        self.apstar = apstar
        self.trace = trace if trace is not None else TraceRecorder()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.trace_ticks = trace_ticks
        self.controller = controller

        self.random_source = RandomSource(config.seed)
        # Re-seed the network's channel substreams from the run seed unless
        # the caller wired a specific source already.
        if network.random_source.master_seed != config.seed:
            network.random_source = RandomSource(config.seed)

        self.queue = EventQueue()
        self.event_stats = EventStats()
        self._expected_contents: frozenset = frozenset(
            cmd.content for cmd in self.workload
        )
        self._now: SimTime = 0.0
        self._crashed: set[int] = set()
        #: Crashes injected by the schedule controller (index -> time); they
        #: are folded into the result's crash schedule so the property
        #: checkers classify the victims as faulty.
        self._forced_crashes: dict[int, SimTime] = {}
        self._stop_requested = False
        self._stop_reason = "horizon"
        self._stop_deadline: Optional[SimTime] = None

        # Build processes and their environments.
        self.environments: dict[int, ProcessEnvironment] = {}
        self.processes: dict[int, BroadcastProtocol] = {}
        for index in range(config.n_processes):
            env = ProcessEnvironment(index, self)
            self.environments[index] = env
            self.processes[index] = process_factory(index, env)

    # ------------------------------------------------------------------ #
    # services used by ProcessEnvironment
    # ------------------------------------------------------------------ #
    def broadcast_from(self, src: int, payload: Any) -> None:
        """Execute the anonymous broadcast primitive on behalf of *src*.

        Every copy's fate is decided first — by the channels
        (``Network.broadcast_fast``) or by the schedule controller — then
        the broadcast is booked once: one trace call for the per-copy SEND /
        DROP rows, one queue call for the receive events, two metrics
        calls.  Channel randomness is drawn in the same order whoever
        decides, so controlled and uncontrolled runs are bit-identical.
        """
        if src in self._crashed:
            # A crashed process executes no further statements; silently
            # dropping the call keeps protocols simpler.
            return
        now = self._now
        cut = None
        if self.controller is not None:
            times, cut = self._controlled_copies(src, payload, now)
        else:
            times = self.network.broadcast_fast(src, payload, now)
        kind = payload_kind(payload)
        if self.trace.channel_active:
            self.trace.record_broadcast(now, src, kind, payload, times)
        drops = self.queue.schedule_receives(times, payload)
        metrics = self.metrics
        if metrics.active:
            metrics.on_send_many(now, src, kind, len(times))
            metrics.on_drop_many(now, src, kind, drops)
        if cut is CRASH_SENDER:
            self._crash_for_exploration(src)
        elif cut is not None:
            reject_time(cut, now)

    def _controlled_copies(
        self, src: int, payload: Any, now: SimTime
    ) -> tuple[list[Optional[SimTime]], Any]:
        """The copies of one broadcast as a schedule controller decides them.

        Each copy's fate is the controller's ``copy_decision`` (an absolute
        delivery time, ``None`` for a drop, or :data:`CRASH_SENDER`), up to
        the first that is :data:`CRASH_SENDER` or a time before *now*,
        returned second: later copies never reach their channels, earlier
        ones are booked, then the sender crashes or ``SchedulingError`` is
        raised.  The deduplication key it is given is the payload, as on the
        channels' own path.  No channel is resolved here: a decision-driven
        schedule builds none, and the default controller, which delegates
        every copy to its channel, keeps a controlled run bit-identical to
        an RNG-driven one.
        """
        controller = self.controller
        assert controller is not None
        planned: list[Optional[SimTime]] = []
        for dst in range(self.network.n_processes):
            decision = controller.copy_decision(
                self, src, dst, payload, payload, now
            )
            if decision is CRASH_SENDER or not (
                    decision is None or decision >= now):  # NaN too
                return planned, decision
            planned.append(decision)
        return planned, None

    def _crash_for_exploration(self, index: int) -> None:
        """Crash *index* on a controller's decision, remembering the time so
        the run's effective crash schedule reflects the injected fault."""
        if index in self._crashed:
            return
        self._forced_crashes[index] = self._now
        self._crashed.add(index)
        self.trace.record(self._now, TraceCategory.CRASH, index, forced=True)

    def atheta_view(self, index: int) -> FailureDetectorView:
        """AΘ output for process *index* at the current time."""
        if self.controller is not None:
            view = self.controller.atheta_view(self, index, self._now)
            if view is not None:
                return view
        if self.atheta is None:
            return FailureDetectorView.empty()
        return self.atheta.view(index, self._now)

    def apstar_view(self, index: int) -> FailureDetectorView:
        """AP\\* output for process *index* at the current time."""
        if self.controller is not None:
            view = self.controller.apstar_view(self, index, self._now)
            if view is not None:
                return view
        if self.apstar is None:
            return FailureDetectorView.empty()
        return self.apstar.view(index, self._now)

    def on_process_delivered(self, index: int, message: TaggedMessage) -> None:
        """Record a URB-delivery."""
        if self.metrics.active:
            self.metrics.on_urb_deliver(self._now, index, message.content)
        if self.trace.protocol_active:
            self.trace.record(
                self._now,
                TraceCategory.URB_DELIVER,
                index,
                content=message.content,
                tag=message.tag,
            )

    def on_process_retired(self, index: int, message: TaggedMessage) -> None:
        """Record the retirement of a message from a process's MSG set."""
        if self.trace.protocol_active:
            self.trace.record(
                self._now,
                TraceCategory.RETIRE,
                index,
                content=message.content,
                tag=message.tag,
            )

    def request_stop(self, reason: str) -> None:
        """Ask the engine to stop at the end of the current event."""
        self._stop_requested = True
        self._stop_reason = reason

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Run the simulation to completion and return its result."""
        if self.controller is not None:
            self.controller.begin_run(self)
        self._seed_initial_events()

        # The loop pops for itself and handles RECEIVE (nearly every event)
        # in place; the books a reception changes are kept before any other
        # event and at the end, and stop state re-read after one (DESIGN §8.1).
        queue = self.queue
        current = queue.current
        pop = current.pop
        refill = queue.refill
        pending = queue.pending
        max_time = self.config.max_time
        crashed = self._crashed
        tables = [process.receive_table() for process in self.processes.values()]
        record = self.trace.record_copy if self.trace.channel_active else None
        dispatch = self._dispatch
        book = self._book_receives
        stopped = self._stop_requested
        stop_at = max_time  # or the drain deadline, once set and earlier
        time = queue.last_popped_time
        receives = lost = 0  # RECEIVEs popped since the last booking
        try:
            while not stopped:
                if not current and not refill():
                    break
                time, _, kind, target, payload = pop(0)
                if time >= stop_at and (time > max_time or (
                        self._stop_deadline is not None
                        and time >= self._stop_deadline)):
                    pending[kind.slot] -= 1
                    if time > max_time:
                        self._stop_reason = "horizon"
                    else:  # the clock reaches the drain deadline
                        self._now = time
                    break
                self._now = time
                if kind is _RECEIVE:
                    receives += 1
                    if target in crashed:
                        # The channel delivered the copy but the process is
                        # gone; a crashed process executes no statements, so
                        # the copy is lost.
                        lost += 1
                        continue
                    if record is not None:
                        record(time, _CHANNEL_DELIVER, target, None, payload)
                    try:
                        handler = tables[target][payload.__class__]
                    except KeyError:  # not in the table: on_receive decides
                        handler = tables[target][payload.__class__] = \
                            self.processes[target].on_receive
                    handler(payload)
                    continue
                pending[kind.slot] -= 1
                queue.last_popped_time = time
                if receives:
                    book(receives, lost)
                    receives = lost = 0
                dispatch(kind, target, payload)
                stopped = self._stop_requested
                if self._stop_deadline is not None:
                    stop_at = min(max_time, self._stop_deadline)
        finally:
            queue.last_popped_time = time
            book(receives, lost)
        return self._finish_run()

    def _book_receives(self, receives: int, lost: int) -> None:
        """Book *receives* RECEIVEs the loop popped, *lost* of them by crashed
        processes: pending count, event count, channel deliveries."""
        self.queue.pending[_RECEIVE.slot] -= receives
        self.event_stats.dispatched[_RECEIVE] += receives
        if self.metrics.active:
            self.metrics.total_channel_deliveries += receives - lost

    def _finish_run(self, **counts: int) -> SimulationResult:
        """Close the books of a run whose loop has ended; package its result
        (*counts*: the :class:`ExecutionRecord` counts a batched loop kept)."""
        # Fated rows defer their channels' counters and guard state: from
        # here on, every reader of the network sees them settled.
        self.network.settle()
        final_time = min(self._now, self.config.max_time)
        self.metrics.on_finish(final_time)
        provenance = self._schedule_provenance()
        self.trace.header.update(provenance.as_dict())
        result = SimulationResult(
            config=self.config,
            crash_schedule=self._effective_crash_schedule(),
            trace=self.trace,
            metrics=self.metrics,
            delivery_logs={
                index: process.delivery_log
                for index, process in self.processes.items()
            },
            processes=dict(self.processes),
            expected_contents=tuple(cmd.content for cmd in self.workload),
            final_time=final_time,
            stop_reason=self._stop_reason,
            execution=ExecutionRecord(
                self.engine_label, self.dispatch_mode, self.consume_mode,
                self._fallback, len(self.network.fated_sources), **counts),
            event_stats=self.event_stats,
            schedule=provenance,
        )
        if obs.enabled():
            _record_obs_run(result)
        return result

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _schedule_provenance(self) -> ScheduleProvenance:
        controller = self.controller
        if controller is None:
            return ScheduleProvenance(
                strategy="default",
                seed=self.config.seed,
                schedule_index=0,
                decision_count=0,
                schedule_hash=hash_decisions(()),
            )
        decisions = tuple(map(tuple, controller.decisions))
        return ScheduleProvenance(
            strategy=getattr(controller, "strategy_name", type(controller).__name__),
            seed=self.config.seed,
            schedule_index=int(getattr(controller, "schedule_index", 0)),
            decision_count=len(decisions),
            schedule_hash=hash_decisions(decisions),
            decisions=decisions,
        )

    def _effective_crash_schedule(self) -> CrashSchedule:
        """The scenario's crash schedule plus any controller-injected
        crashes."""
        if not self._forced_crashes:
            return self.crash_schedule
        merged = dict(self.crash_schedule.crash_times)
        merged.update(self._forced_crashes)
        return CrashSchedule.crash_at(self.crash_schedule.n_processes, merged)

    def _seed_initial_events(self) -> None:
        for index, crash_time in self.crash_schedule:
            self.queue.schedule(crash_time, EventKind.CRASH, target=index)
        for command in self.workload:
            self.queue.schedule(
                command.time, EventKind.BROADCAST_REQUEST,
                target=command.sender, payload=command.content,
            )
        for index in range(self.config.n_processes):
            first_tick = self.config.tick_interval
            if first_tick <= self.config.max_time:
                self.queue.schedule(first_tick, EventKind.TICK, target=index)
        if self.config.stop.any_enabled:
            self.queue.schedule(
                self.config.check_interval, EventKind.ENGINE_CHECK
            )

    def _dispatch(self, kind: EventKind, target: Optional[int],
                  payload: Any) -> None:
        """Count and handle one event of the four kinds that are not
        ``RECEIVE`` (that one the loops handle themselves, in place)."""
        self.event_stats.dispatched[kind] += 1
        if kind is EventKind.TICK:
            self._handle_tick(target)
        elif kind is EventKind.CRASH:
            self._handle_crash(target)
        elif kind is EventKind.BROADCAST_REQUEST:
            self._handle_broadcast_request(target, payload)
        elif kind is EventKind.ENGINE_CHECK:
            self._handle_engine_check()
        else:
            raise RuntimeError(f"no handler for event kind {kind!r}")

    def _handle_crash(self, index: int) -> None:
        if index in self._crashed:
            return
        self._crashed.add(index)
        self.trace.record(self._now, TraceCategory.CRASH, index)

    def _handle_tick(self, index: int) -> None:
        if index not in self._crashed:
            if self.trace_ticks:
                self.trace.record(self._now, TraceCategory.TICK, index)
            self.processes[index].on_tick()
            next_tick = self._now + self.config.tick_interval
            if next_tick <= self.config.max_time:
                self.queue.schedule(next_tick, EventKind.TICK, target=index)

    def _handle_broadcast_request(self, index: int, content: Any) -> None:
        if index in self._crashed:
            return
        self.metrics.on_urb_broadcast(self._now, index, content)
        self.trace.record(
            self._now, TraceCategory.URB_BROADCAST, index, content=content
        )
        self.processes[index].urb_broadcast(content)

    def _handle_engine_check(self) -> None:
        stop = self.config.stop
        satisfied = None
        if stop.stop_when_quiescent and self._quiescence_reached():
            satisfied = "quiescent"
        elif stop.stop_when_all_correct_delivered and self._all_correct_delivered():
            satisfied = "all correct delivered"
        if satisfied is not None:
            if stop.drain_grace_period > 0:
                if self._stop_deadline is None:
                    self._stop_deadline = self._now + stop.drain_grace_period
                    self._stop_reason = satisfied
            else:
                self.request_stop(satisfied)
                return
        next_check = self._now + self.config.check_interval
        if next_check <= self.config.max_time:
            self.queue.schedule(next_check, EventKind.ENGINE_CHECK)

    # -- stop predicates --------------------------------------------------- #
    def _all_correct_delivered(self) -> bool:
        expected = self._expected_contents
        if not expected:
            return False
        forced = self._forced_crashes
        for index in self.crash_schedule.correct_indices():
            if forced and index in forced:
                # Controller-injected crash: the process is faulty in this
                # run even though the declared schedule says correct.
                continue
            delivered = self.processes[index].delivery_log.content_set()
            if not expected <= delivered:
                return False
        return True

    def _quiescence_reached(self) -> bool:
        # Every alive process has no retransmission obligation and nothing
        # is in flight or still scheduled to be injected.  The pending-event
        # counts are O(1) reads, booked by the loop before every dispatch.
        queue = self.queue
        if (queue.pending_of(EventKind.RECEIVE)
                or queue.pending_of(EventKind.BROADCAST_REQUEST)):
            return False
        crashed = self._crashed
        processes = self.processes
        for index in range(self.config.n_processes):
            if index not in crashed and processes[index].pending_retransmissions > 0:
                return False
        return True


def _record_obs_run(result: SimulationResult) -> None:
    """The one writer of run-level obs, once per run when obs is enabled:
    counters from *result*'s execution record and event count, and one
    ``engine.run`` timeline event carrying the record.  It reads the
    finished result alone, so it cannot perturb the simulation."""
    execution = result.execution
    engine = execution.engine
    obs.counter(
        "repro_sim_runs_total", "Simulation runs completed.",
        ("engine", "dispatch_mode"),
    ).inc(engine=engine, dispatch_mode=execution.dispatch_mode)
    obs.counter(
        "repro_sim_events_total",
        "Simulation events dispatched, all kinds.",
        ("engine",),
    ).inc(result.event_stats.total, engine=engine)
    reasons = (execution.fallback_reason,
               "no_batch_consumer" if execution.consume_mode == "boxed" else None,
               "generic_rows" if execution.generic_rows else None)
    for reason in filter(None, reasons):
        obs.counter(
            "repro_engine_fallback_total",
            "Vectorized runs that fell back to a slower dispatch path, "
            "by reason.",
            ("reason",),
        ).inc(reason=reason)
    if execution.consume_mode == "batched":
        obs.counter(
            "repro_engine_batched_consumed_total",
            "Channel deliveries of runs consumed through the repeat filter.",
        ).inc(execution.consumed)
        obs.counter(
            "repro_engine_replayed_total",
            "Channel deliveries the repeat filter replayed through "
            "on_receive (the others: proven no-ops, crashed destinations).",
        ).inc(execution.replayed)
    obs.emit("engine.run", **execution._asdict())
