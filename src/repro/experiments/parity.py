"""Engine-backend parity: fingerprints and the scenario battery.

The ``engines`` registry promises that every backend is *bit-identical* to
``reference`` — a backend is a dispatch strategy, never a semantics change.
This module is the executable form of that contract:

* :func:`fingerprint` reduces a finished run to every observable the
  promise covers: the trace digest, the full metrics summary, the ordered
  per-process delivery logs, per-kind event statistics, final time and
  stop reason; :func:`run_fingerprint` adds what lives on the built engine
  instead of the result — per-channel transmission statistics, the
  fairness-guard state left on the channels, the final sequence counter —
  and keeps the run's execution record beside the fingerprint, never in it.
* :func:`parity_cases` is the scenario battery, chosen so that every
  dispatch path of the vectorized backend is exercised: the homogeneous
  Bernoulli/uniform rows of its block sampler, the rows it fates per send
  (all-drop rows, reliable and quasi-reliable channel families),
  the fairness guard (heavy loss), crashes, both ways of consuming a
  delivery run (through the repeat filter for Algorithms 1 and 2 — strict
  equality, staggered label learning and every detector policy included — and
  boxed for the baselines, which do not declare the filter's property), the
  TICKs of one instant sharing a flush and that run cut where a copy is due
  at the instant itself, and the per-event fallback for unbounded-below
  delays.
* :func:`compare_engines` runs one scenario under several backends and
  reports exactly which fingerprint components disagree.

Used by ``tests/unit/test_engine_backends.py`` and by the CI gate
``scripts/engine_parity.py`` (which uploads the mismatch reports as a
digest-diff artifact when the gate fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..network.delay import DelaySpec
from ..network.loss import LossSpec
from ..simulation.engine import ExecutionRecord, SimulationResult
from ..simulation.metrics import MetricsCollector, MetricsLevel
from ..simulation.tracing import TraceLevel, TraceRecorder
from ..workloads.generators import AllToAll
from .config import Scenario
from .runner import build_engine

#: Engines every parity run compares.  The reference engine is always
#: first: it defines the expected fingerprint.
DEFAULT_ENGINES: tuple[str, ...] = ("reference", "vectorized")


def fingerprint(result: SimulationResult) -> dict[str, Any]:
    """Every observable of *result* that backends must reproduce exactly.

    The values are plain JSON-friendly structures so mismatch reports can
    be serialised as CI artifacts.
    """
    deliveries = {
        str(index): [
            (repr(record.message.tag), repr(record.message.content))
            for record in log
        ]
        for index, log in sorted(result.delivery_logs.items())
    }
    return {
        "trace_digest": result.trace.digest(),
        "metrics": result.metrics.summary().as_dict(),
        "deliveries": deliveries,
        "event_stats": {str(k): v for k, v in result.event_stats.as_dict().items()},
        "final_time": result.final_time,
        "stop_reason": result.stop_reason,
    }


@dataclass(frozen=True)
class EngineRun:
    """One engine's run of a parity scenario."""

    engine: str
    fingerprint: dict[str, Any]
    #: How the run ran (the result's record): which path, and its counts.
    execution: ExecutionRecord


@dataclass(frozen=True)
class ParityReport:
    """Outcome of comparing one scenario across engine backends."""

    name: str
    runs: tuple[EngineRun, ...]
    #: Fingerprint keys on which some backend disagrees with the first
    #: (reference) run.  Empty means bit-identical.
    mismatched: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether every backend reproduced the reference fingerprint."""
        return not self.mismatched

    def diff(self) -> dict[str, Any]:
        """JSON-friendly digest-diff of the mismatching components."""
        return {
            "scenario": self.name,
            "mismatched": list(self.mismatched),
            "runs": [
                {
                    "engine": run.engine,
                    "execution": run.execution._asdict(),
                    **{key: run.fingerprint[key] for key in self.mismatched},
                }
                for run in self.runs
            ],
        }


def run_fingerprint(
    scenario: Scenario,
    engine: str,
    *,
    trace_level: TraceLevel = TraceLevel.DELIVERIES,
    metrics_level: MetricsLevel = MetricsLevel.FULL,
) -> EngineRun:
    """Run *scenario* under *engine* and fingerprint the result.

    The trace level defaults to ``DELIVERIES`` (protocol observables only):
    a FULL trace forces batching backends onto their per-event path, which
    would make the comparison vacuous — per-copy parity is covered by the
    dedicated FULL-trace cases instead, which *expect* the fallback.
    Metrics stay FULL either way; batching backends must reproduce the
    entire summary including latency percentiles.
    """
    built = build_engine(scenario.with_(engine=engine))
    built.trace = TraceRecorder(enabled=scenario.trace_enabled,
                                level=trace_level)
    built.metrics = MetricsCollector(level=metrics_level)
    result = built.run()
    return EngineRun(
        engine=engine,
        fingerprint={**fingerprint(result), **engine_fingerprint(built)},
        execution=result.execution,
    )


def engine_fingerprint(built: Any) -> dict[str, Any]:
    """The observables of a finished run that live on the engine *built*,
    not on its result: what the run left on the network and the queue."""
    channels = [
        (f"{src}->{dst}", channel)
        for (src, dst), channel in sorted(built.network.channels.items())
        # Only channels that carried traffic are compared: channels are
        # built lazily, and a backend may build the rows of processes that
        # never send (to bound their delays).
        if channel.stats.attempts
    ]
    return {
        # Batching backends defer their per-channel counter updates and
        # must land on exactly the per-transmit totals.
        "channel_stats": {
            name: {
                "attempts": channel.stats.attempts,
                "delivered": channel.stats.delivered,
                "dropped": channel.stats.dropped,
                "forced_deliveries": channel.stats.forced_deliveries,
            }
            for name, channel in channels
        },
        # The fairness-guard state left on those channels (non-zero
        # consecutive-drop counts per dedup key): a backend that keeps the
        # guard in its own tables must write every count back.
        "channel_guards": {
            name: sorted((repr(key), count) for key, count
                         in channel._consecutive_drops.items() if count)
            for name, channel in channels
            if getattr(channel, "_consecutive_drops", None)
        },
        # Where the shared sequence counter ends: batching backends claim
        # their copies' numbers from it, and a claim out of program order (a
        # send sampled after its tick's re-arm, say) that changes what a
        # process does next shows here before it shows anywhere else.
        "final_seq": built.queue.claim_seqs(0),
    }


def compare_engines(
    scenario: Scenario,
    engines: Sequence[str] = DEFAULT_ENGINES,
    *,
    trace_level: TraceLevel = TraceLevel.DELIVERIES,
    metrics_level: MetricsLevel = MetricsLevel.FULL,
) -> ParityReport:
    """Run *scenario* under every backend in *engines* and compare."""
    runs = tuple(
        run_fingerprint(scenario, engine,
                        trace_level=trace_level, metrics_level=metrics_level)
        for engine in engines
    )
    expected = runs[0].fingerprint
    mismatched = tuple(
        key for key in expected
        if any(run.fingerprint[key] != expected[key] for run in runs[1:])
    )
    return ParityReport(name=scenario.name, runs=runs, mismatched=mismatched)


# --------------------------------------------------------------------------- #
# the scenario battery
# --------------------------------------------------------------------------- #
def parity_cases() -> tuple[Scenario, ...]:
    """Scenarios covering every dispatch path of the vectorized backend.

    Kept deliberately small (seconds each): CI runs the battery under every
    backend on every supported Python / NumPy combination.
    """
    base = Scenario(
        name="base",
        algorithm="algorithm2",
        n_processes=6,
        seed=20150525,
        loss=LossSpec.bernoulli(0.25),
        delay=DelaySpec.uniform(0.05, 0.5),
        workload="burst",
        metadata={"burst_size": 4},
        max_time=80.0,
        stop_when_quiescent=True,
        drain_grace_period=2.0,
    )
    # A delay of one tick interval: every copy a tick sends is due exactly
    # at the next tick instant, so the batched loop must stop sharing a
    # flush among that instant's TICKs where a copy may come between them.
    # Broadcasts half a tick off the instants leave the first instant's
    # TICKs one shared flush whose copies then tie with their re-arms.
    tick = base.tick_interval
    tick_ties = base.with_(
        delay=DelaySpec.fixed(tick), loss=LossSpec.bernoulli(0.2),
        workload=AllToAll(base.n_processes, start=tick / 2), metadata={},
        crashes={5: 3 * tick})
    return (
        # Vector sampler + sliced merge (the headline fast path).
        base.with_(name="bernoulli-uniform"),
        # p == 0 rows: no loss uniforms may be drawn.
        base.with_(name="noloss-uniform", loss=LossSpec.none()),
        # Equal delays: the chunk-internal no-sort fast path.
        base.with_(name="bernoulli-fixed", delay=DelaySpec.fixed(0.3)),
        # Unbounded-below delays: no slice window, per-event fallback.
        base.with_(name="bernoulli-exponential",
                   delay=DelaySpec.exponential(mean=0.3, cap=2.0)),
        # Heavy loss: the fairness guard forces deliveries.
        base.with_(name="heavy-loss-guard",
                   loss=LossSpec.bernoulli(0.7), fairness_bound=2,
                   max_time=60.0),
        # Degenerate all-drop rows (guard-only traffic, vector mode must
        # refuse them).
        base.with_(name="all-drop", loss=LossSpec.bernoulli(1.0),
                   fairness_bound=3, max_time=40.0,
                   metadata={"burst_size": 2}),
        # Crashes interleaved with the fast path.
        base.with_(name="crashes-mid-run", crashes={4: 3.0, 5: 9.0}),
        # Staggered label learning: ACKs of one ``(m, tag_ack)`` cell carry
        # changing label sets while AΘ converges, driving the repeat
        # filter's in-run rule (a cell rewritten inside a run is replayed).
        base.with_(name="staggered-learning", fd_learn_delay=6.0,
                   crashes={5: 4.0}),
        # Algorithm 1 (no failure detectors, no labels).
        base.with_(name="algorithm1", algorithm="algorithm1",
                   stop_when_quiescent=False,
                   stop_when_all_correct_delivered=True),
        # Reliable / quasi-reliable channel families (generic sampler,
        # sliced merge via their delay models).
        base.with_(name="reliable", channel_type="reliable",
                   loss=LossSpec.none()),
        base.with_(name="quasi-reliable", channel_type="quasi_reliable",
                   loss=LossSpec.none(), crashes={1: 5.0}),
        # Literal ``==`` delivery/retire conditions (non-monotone in the
        # counters): filtered like any other Algorithm 2 run.
        base.with_(name="strict-equality", strict_equality=True),
        base.with_(name="strict-equality-crashes", strict_equality=True,
                   crashes={4: 3.0, 5: 9.0}),
        # Boxed consumption: the baselines do not declare
        # ``repeated_ack_is_noop_once_delivered``, so every reception —
        # ACKs included — is replayed in run order.
        base.with_(name="eager-rb", algorithm="eager_rb",
                   stop_when_quiescent=False, max_time=20.0),
        base.with_(name="identified-urb", algorithm="identified_urb",
                   stop_when_quiescent=False, max_time=20.0),
        # Only the sender's channel row ever carries traffic.
        base.with_(name="best-effort", algorithm="best_effort",
                   stop_when_quiescent=False, max_time=20.0),
        # An AΘ whose number shrinks and whose pairs drop out as crashes
        # are detected: replay reads it at each entry's own time.
        base.with_(name="unstable-view-windows", fd_policy="all_processes",
                   crashes={5: 4.0}),
        # Both kinds of breakpoint in one view: labels learnt one by one
        # while detections remove pairs and shrink the number.
        base.with_(name="all-processes-learning", fd_policy="all_processes",
                   fd_learn_delay=6.0, crashes={4: 3.0, 5: 9.0}),
        # One singleton view per process, never rebuilt.
        base.with_(name="own-only", fd_policy="own_only"),
        # Copies due at tick instants, a crash at one, under both paper
        # algorithms.
        tick_ties.with_(name="tick-ties"),
        tick_ties.with_(name="tick-ties-algorithm1", algorithm="algorithm1",
                        stop_when_quiescent=False,
                        stop_when_all_correct_delivered=True),
    )


def check_parity(
    scenarios: Optional[Sequence[Scenario]] = None,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> list[ParityReport]:
    """Run the whole battery; returns one report per scenario."""
    if scenarios is None:
        scenarios = parity_cases()
    return [compare_engines(scenario, engines) for scenario in scenarios]
