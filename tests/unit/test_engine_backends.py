"""Engine-backend registry and vectorized/reference parity tests.

The ``engines`` registry's contract is that a backend is a dispatch
strategy, never a semantics change: every backend must be bit-identical to
``reference`` on the parity battery, must fall back to per-event dispatch
whenever per-copy observability is required (controllers, FULL traces)
or the channels have no positive minimum delay, must name and count
every such off-ramp, and must round-trip through scenario serialisation
like any other registry-named component.  The vectorized backend's repeat
filter gets its own section: a fixed-seed differential sweep, the in-run
rule, and what it reports to obs.
"""

from __future__ import annotations

import io
import json
import random

import numpy as np
import pytest

from repro import obs
from repro.core.messages import (
    AckPayload,
    LabeledAckPayload,
    MsgPayload,
    TaggedMessage,
)
from repro.simulation.vectorized import PayloadInterner
from repro.experiments.config import Scenario
from repro.experiments.parity import (
    compare_engines,
    engine_fingerprint,
    fingerprint,
    parity_cases,
    run_fingerprint,
)
from repro.experiments.runner import build_engine
from repro.explore.serialize import scenario_from_dict, scenario_to_dict
from repro.failure_detectors.labels import Label
from repro.network.delay import DelaySpec, UniformDelay
from repro.network.loss import BernoulliLoss, GilbertElliottLoss, LossSpec
from repro.registry import UnknownComponentError, all_registries, engines
from repro.simulation import vectorized
from repro.simulation.backends import VectorizedEngine
from repro.simulation.engine import ExecutionRecord, SimulationEngine
from repro.simulation.tracing import TraceLevel, TraceRecorder
from repro.workloads.generators import BurstWorkload

CASES = {scenario.name: scenario for scenario in parity_cases()}

#: ``(dispatch_mode, consume_mode)`` of the battery cases that do not run
#: filtered: the per-event fallback, and the baseline protocols, which do
#: not declare ``repeated_ack_is_noop_once_delivered``.
OFF_RAMP_CASES = {
    "bernoulli-exponential": ("per-event", None),
    "eager-rb": ("batched", "boxed"),
    "identified-urb": ("batched", "boxed"),
    "best-effort": ("batched", "boxed"),
}

#: Battery cases none of whose source rows the block sampler can replay
#: (``p == 1`` rows, channel families with their own ``transmit``): all six
#: rows are fated per send.
GENERIC_ROWS = {"all-drop": 6, "reliable": 6, "quasi-reliable": 6}


# --------------------------------------------------------------------------- #
# registry surface
# --------------------------------------------------------------------------- #
def test_engines_registry_contents():
    names = engines.names()
    assert "reference" in names
    assert "vectorized" in names
    assert engines.get("reference").batched is False
    assert engines.get("vectorized").batched is True
    engine = build_engine(Scenario(name="vec", algorithm="algorithm1",
                                   n_processes=3, max_time=10.0,
                                   engine="vectorized"))
    assert type(engine) is VectorizedEngine


def test_engines_registry_in_all_registries():
    registries = all_registries()
    assert registries["Engine backends"] is engines


def test_unknown_engine_name_raises_registry_error():
    with pytest.raises(UnknownComponentError):
        engines.get("warp-drive")
    with pytest.raises(UnknownComponentError):
        Scenario(name="bad", algorithm="algorithm1", engine="warp-drive")


def test_reference_engine_factory_is_the_reference_class():
    engine = build_engine(Scenario(name="ref", algorithm="algorithm1",
                                   n_processes=3, max_time=10.0))
    assert type(engine) is SimulationEngine
    assert engines.get("reference").factory is SimulationEngine
    assert engines.get("vectorized").factory is VectorizedEngine


# --------------------------------------------------------------------------- #
# bit-identical parity across the battery
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(CASES))
def test_vectorized_matches_reference(name):
    report = compare_engines(CASES[name])
    assert report.ok, report.diff()
    # The comparison must not be vacuous: the vectorized run has to take
    # the path the case was written for (these scenarios attach no
    # controller and the parity runner keeps traces at DELIVERIES level).
    (execution,) = (run.execution for run in report.runs
                    if run.engine == "vectorized")
    assert (execution.dispatch_mode, execution.consume_mode) == \
        OFF_RAMP_CASES.get(name, ("batched", "batched"))
    assert execution.generic_rows == GENERIC_ROWS.get(name, 0)


#: ``test_small_sample_block_is_bit_identical``'s scenarios: four battery
#: cases and a flood — Algorithm 1, every process broadcasting, two crashes
#: mid-run, never quiescent — whose flushes hold sends of every live row in
#: unequal numbers, so the rows run out of their loss blocks in different
#: passes of one flush.
BLOCK_CASES = {
    **{name: CASES[name] for name in ("bernoulli-uniform", "algorithm1",
                                      "heavy-loss-guard", "crashes-mid-run")},
    "flood": CASES["algorithm1"].with_(
        name="flood", workload="all_to_all", metadata={},
        crashes={0: 2.0, 1: 4.5}, max_time=6.0,
        stop_when_all_correct_delivered=False),
}


def _count_calls(monkeypatch, name):
    """Wrap ``_NetSampler.<name>``; the returned list gets, per call, the
    number of distinct source rows in its ``srcs`` argument."""
    method = getattr(vectorized._NetSampler, name)
    calls = []

    def counting(self, srcs, *args):
        calls.append(len(set(srcs.tolist())))
        return method(self, srcs, *args)

    monkeypatch.setattr(vectorized._NetSampler, name, counting)
    return calls


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
@pytest.mark.parametrize("block", [1, 3])
def test_small_sample_block_is_bit_identical(monkeypatch, block, name):
    # Tiny prefetch blocks put every refill boundary inside single flushes:
    # a row's sends need several loss blocks, so the flush is split into
    # passes, and delay columns are topped up between them.  Results must
    # not depend on the block size.
    monkeypatch.setattr(vectorized, "SAMPLE_BLOCK", block)
    passes = _count_calls(monkeypatch, "_sample_pass")
    report = compare_engines(BLOCK_CASES[name])
    assert report.ok, report.diff()
    assert len(passes) > report.runs[1].execution.sampler_calls
    assert max(passes) >= 3


def test_a_flush_enters_the_sampler_once(monkeypatch):
    flush_sends = VectorizedEngine._flush_sends
    flushes = []

    def counting_flush(self):
        if self._outbox:
            flushes.append(len({src for src, _, _ in self._outbox}))
        flush_sends(self)

    monkeypatch.setattr(VectorizedEngine, "_flush_sends", counting_flush)
    execution = run_fingerprint(CASES["bernoulli-uniform"],
                                "vectorized").execution
    assert execution.dispatch_mode == "batched"
    # One call per non-empty flush, however many rows sent in it.
    assert execution.sampler_calls == len(flushes)
    assert max(flushes) >= 3


#: The engine workloads of the repo benchmark, as ``benchmarks/e2e``
#: builds them (``build_flood``, ``build_quiescence``), at seed 1234.
WORKLOADS = {
    "flood_n14": Scenario(
        name="e2e-flood", algorithm="algorithm1", n_processes=14, seed=1234,
        loss=LossSpec.bernoulli(0.2), delay=DelaySpec.uniform(0.05, 0.5),
        workload="all_to_all", crashes={0: 6.0 * 0.3, 1: 6.0 * 0.7},
        max_time=6.0),
    "quiescence_n24": Scenario(
        name="e2e-quiescence", algorithm="algorithm2", n_processes=24,
        seed=1234, loss=LossSpec.bernoulli(0.05),
        delay=DelaySpec.uniform(0.05, 0.5), workload="burst",
        metadata={"burst_size": 4}, stop_when_quiescent=True,
        drain_grace_period=2.0, max_time=400.0),
}

#: ``_NetSampler.sample`` calls of each workload's vectorized run.  With one
#: flush per TICK they were 146 and 79: every tick instant cost one call
#: per process.
PINNED_SAMPLE_CALLS = {"flood_n14": 75, "quiescence_n24": 33}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sampler_calls_of_the_engine_workloads_are_the_pinned_ones(name):
    execution = run_fingerprint(WORKLOADS[name], "vectorized").execution
    assert (execution.dispatch_mode, execution.consume_mode) == \
        ("batched", "batched")
    assert execution.sampler_calls == PINNED_SAMPLE_CALLS[name]


def test_the_ticks_of_one_instant_reach_the_sampler_in_one_call(
        monkeypatch):
    ticks: dict = {}  # tick instant -> TICKs dispatched at it
    senders = []  # per sample call: send time -> distinct sources
    handle_tick, sample = (VectorizedEngine._handle_tick,
                           vectorized._NetSampler.sample)

    def counted_tick(self, index):
        ticks[self._now] = ticks.get(self._now, 0) + 1
        handle_tick(self, index)

    def recorded_sample(self, srcs, keys, nows):
        by_time: dict = {}
        for src, now in zip(srcs.tolist(), nows.tolist()):
            by_time.setdefault(now, set()).add(src)
        senders.append(by_time)
        return sample(self, srcs, keys, nows)

    monkeypatch.setattr(VectorizedEngine, "_handle_tick", counted_tick)
    monkeypatch.setattr(vectorized._NetSampler, "sample", recorded_sample)
    execution = run_fingerprint(CASES["bernoulli-uniform"],
                                "vectorized").execution
    assert execution.dispatch_mode == "batched"
    # Uniform delays put no copy on a tick instant: no run of ticks is cut,
    # so each instant's ticks share one flush, and it samples once.
    assert execution.tick_runs_cut == 0 and min(ticks.values()) > 1
    assert execution.tick_flushes_shared == len(ticks)
    calls_at = [[call[instant] for call in senders if instant in call]
                for instant in ticks]
    assert max(len(calls) for calls in calls_at) == 1
    assert max(len(sources) for calls in calls_at for sources in calls) > 1


def _bursty_row_4(src, dst, rng):
    """Custom loss factory: Gilbert–Elliott on row 4, the battery's heavy
    Bernoulli loss everywhere else."""
    if src == 4:
        return GilbertElliottLoss(rng, p_good_to_bad=0.4, loss_bad=0.9)
    return BernoulliLoss(0.7, rng)


@pytest.mark.parametrize("generic_rows, loss", [
    (0, LossSpec.bernoulli(0.7)),
    (1, LossSpec.custom(_bursty_row_4)),
], ids=["vector-rows", "mixed-rows"])
@pytest.mark.parametrize("block", [2, 5, 256])
def test_net_sampler_flush_matches_transmit_copy_by_copy(
        monkeypatch, block, generic_rows, loss):
    """A flush whose sends interleave three source rows, with repeated keys
    and guard state already on channels of two of them, handed to ``sample``
    in two calls, against ``LossyChannel.transmit`` called copy by copy, in
    program order, on a twin network built from the same seed."""
    monkeypatch.setattr(vectorized, "SAMPLE_BLOCK", block)
    scenario = CASES["heavy-loss-guard"].with_(loss=loss)
    n = scenario.n_processes
    batch_net = build_engine(scenario).network
    twin_net = build_engine(scenario).network
    srcs = [(2, 0, 2, 4, 2, 4, 0)[i % 7] for i in range(40)]
    payloads = [MsgPayload(TaggedMessage(content=f"m{i % 3}", tag=i % 3))
                for i in range(len(srcs))]
    nows = np.linspace(1.0, 2.0, len(srcs))
    # Guard state left by an earlier run on a reused network.
    for net in (batch_net, twin_net):
        net.channel(2, 0)._consecutive_drops[payloads[0]] = 2
        net.channel(0, 4)._consecutive_drops[payloads[1]] = 1

    sampler = vectorized._NetSampler(batch_net, n)
    assert sampler.generic_rows == generic_rows
    delivered, times = [], []
    for lo, hi in ((0, 23), (23, len(srcs))):
        part, part_times = sampler.sample(
            np.array(srcs[lo:hi]), payloads[lo:hi], nows[lo:hi])
        delivered += part.tolist()
        times += part_times.tolist()
    sampler.flush_stats()

    want_delivered, want_times = [], []
    for src, payload, now in zip(srcs, payloads, nows.tolist()):
        fates = [twin_net.channel(src, dst).transmit(payload, now)
                 for dst in range(n)]
        want_delivered.append([fate is not None for fate in fates])
        want_times += [fate for fate in fates if fate is not None]
    assert delivered == want_delivered
    assert times == want_times
    assert 0 < len(want_times) < len(srcs) * n
    assert sum(channel.stats.forced_deliveries
               for channel in twin_net.channels.values()) > 0
    for pair, twin in twin_net.channels.items():
        channel = batch_net.channel(*pair)
        assert channel.stats == twin.stats
        assert channel._consecutive_drops == twin._consecutive_drops


class CountingRandom(random.Random):
    """A generator whose ``random()`` is overridden, as a custom spec's
    factory may hand to a stock model; ``getrandbits`` would bypass it."""

    calls = 0

    def random(self):
        CountingRandom.calls += 1
        return super().random()


def _counting_loss_on_row_3(src, dst, rng):
    if src == 3:
        rng = CountingRandom(rng.getrandbits(32))
    return BernoulliLoss(0.25, rng)


def _counting_delay_on_row_3(src, dst, rng):
    if src == 3:
        rng = CountingRandom(rng.getrandbits(32))
    return UniformDelay(rng, 0.05, 0.5)


@pytest.mark.parametrize("changes", [
    {"loss": LossSpec.custom(_counting_loss_on_row_3)},
    {"delay": DelaySpec.custom(_counting_delay_on_row_3)},
], ids=["loss-stream", "delay-stream"])
def test_only_stock_generators_take_the_bulk_path(monkeypatch, changes):
    scenario = CASES["bernoulli-uniform"].with_(**changes)
    runs, calls = {}, {}
    for engine in ("reference", "vectorized"):
        monkeypatch.setattr(CountingRandom, "calls", 0)
        runs[engine] = run_fingerprint(scenario, engine)
        calls[engine] = CountingRandom.calls
    batched = runs["vectorized"]
    assert batched.execution.dispatch_mode == "batched"
    assert batched.fingerprint == runs["reference"].fingerprint
    # The row with the overriding generator is fated send by send through
    # its channels' own models: the override is called, and exactly as
    # often as on the reference path.
    assert batched.execution.generic_rows == 1
    assert calls["vectorized"] == calls["reference"] > 0


def _guarded_run(engine_name, preseed):
    """``heavy-loss-guard`` on a network that already carries guard state."""
    built = build_engine(CASES["heavy-loss-guard"].with_(engine=engine_name))
    built.trace = TraceRecorder(enabled=True, level=TraceLevel.DELIVERIES)
    for (src, dst), drops in preseed.items():
        built.network.channel(src, dst)._consecutive_drops.update(drops)
    result = built.run()
    return built, result.execution, {**fingerprint(result),
                                     **engine_fingerprint(built)}


def test_preseeded_guard_state_is_counted_on_and_written_back():
    # A reused network: two channels start with consecutive-drop counts for
    # payloads the run is going to send (taken from a first run, so the
    # keys are real), one of them already at the fairness bound.
    first, _, unseeded = _guarded_run("reference", {})
    leftovers = {
        pair: dict(channel._consecutive_drops)
        for pair, channel in sorted(first.network.channels.items())
        if channel._consecutive_drops
    }
    (pair_a, drops_a), (pair_b, drops_b) = list(leftovers.items())[:2]
    preseed = {pair_a: {key: 2 for key in drops_a},
               pair_b: {key: 1 for key in drops_b}}
    _, _, reference = _guarded_run("reference", preseed)
    _, execution, batched = _guarded_run("vectorized", preseed)
    assert execution.dispatch_mode == execution.consume_mode == "batched"
    assert batched == reference
    assert reference["channel_guards"]
    # The seeded state mattered: the run differs from the unseeded one.
    assert reference["channel_stats"] != unseeded["channel_stats"]


# --------------------------------------------------------------------------- #
# flush order: deferred sends claim their seqs before anything else does
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["bernoulli-uniform", "algorithm1"])
def test_tick_sends_claim_their_seqs_before_the_rearm(name):
    # A fixed delay equal to the tick interval makes every copy sent by a
    # tick land at exactly the time of that process's next tick, so the
    # order of the two is decided by their sequence numbers alone: a flush
    # that ran after the re-arm would deliver the copies after the tick.
    # The burst goes out half a tick off the instants, so no copy is due at
    # the first one and its TICKs share a flush: each must claim its copies'
    # seqs before its own re-arm and after the previous TICK's.
    scenario = CASES[name]
    tick = scenario.tick_interval
    report = compare_engines(scenario.with_(
        delay=DelaySpec.fixed(tick), metadata={},
        workload=BurstWorkload(scenario.metadata["burst_size"],
                               time=tick / 2)))
    assert report.ok, report.diff()
    execution = report.runs[1].execution
    assert execution.dispatch_mode == "batched"
    assert execution.tick_flushes_shared > 0


def test_engine_check_between_sends_sees_the_copies_in_flight():
    # No drain grace and a check interval below the slice width: engine
    # checks fire in the middle of slices while copies are pooled, and the
    # first one that finds nothing in flight stops the run on the spot.
    scenario = CASES["bernoulli-uniform"].with_(drain_grace_period=0.0,
                                                check_interval=0.02)
    report = compare_engines(scenario)
    assert report.ok, report.diff()
    reference, batched = report.runs
    assert batched.execution.dispatch_mode == \
        batched.execution.consume_mode == "batched"
    assert batched.fingerprint["stop_reason"] == "quiescent"
    assert batched.fingerprint["final_time"] == \
        reference.fingerprint["final_time"]


# --------------------------------------------------------------------------- #
# per-event fallbacks
# --------------------------------------------------------------------------- #
def test_controller_forces_per_event_dispatch_with_parity():
    scenario = CASES["bernoulli-uniform"].with_(
        explore_strategy="random_walk", explore_index=0, max_time=40.0,
    )
    results = {}
    for engine in ("reference", "vectorized"):
        built = build_engine(scenario.with_(engine=engine))
        assert built.controller is not None
        result = built.run()
        results[engine] = (result.execution, fingerprint(result))
    vec_execution, vec_fp = results["vectorized"]
    assert vec_execution.dispatch_mode == "per-event"
    assert vec_fp == results["reference"][1]


def test_full_trace_forces_per_event_dispatch_with_parity():
    run = run_fingerprint(CASES["bernoulli-uniform"], "vectorized",
                          trace_level=TraceLevel.FULL)
    assert run.execution.dispatch_mode == "per-event"
    reference = run_fingerprint(CASES["bernoulli-uniform"], "reference",
                                trace_level=TraceLevel.FULL)
    assert run.fingerprint == reference.fingerprint


# --------------------------------------------------------------------------- #
# fallback reasons: one test per _fallback_reason() branch and one for the
# consume gate, each asserting the execution record AND the
# repro_engine_fallback_total reason label
# --------------------------------------------------------------------------- #
@pytest.fixture()
def obs_on():
    obs.reset()
    obs.enable()
    yield
    obs.reset()


def _fallback_count(reason):
    counter = obs.REGISTRY.get("repro_engine_fallback_total")
    assert counter is not None, "fallback counter never created"
    return counter.value(reason=reason)


def _timeline_events(run):
    """Run *run* with a timeline attached; the execution records its
    ``engine.run`` events carry, in order."""
    stream = io.StringIO()
    obs.set_timeline(obs.Timeline(stream))
    try:
        result = run()
    finally:
        obs.set_timeline(None)
    events = [json.loads(line) for line in stream.getvalue().splitlines()]
    return result, [
        ExecutionRecord(**{field: event[field]
                           for field in ExecutionRecord._fields})
        for event in events if event["kind"] == "engine.run"]


def _assert_per_event_fallback(run, events, reason):
    execution = run.execution
    assert (execution.dispatch_mode, execution.consume_mode,
            execution.fallback_reason) == ("per-event", None, reason)
    assert _fallback_count(reason) == 1
    assert events == [execution]


def test_controller_fallback_reason_counted(obs_on):
    scenario = CASES["bernoulli-uniform"].with_(
        explore_strategy="random_walk", explore_index=0, max_time=40.0)
    run, events = _timeline_events(
        lambda: run_fingerprint(scenario, "vectorized"))
    _assert_per_event_fallback(run, events, "controller")


def test_full_trace_fallback_reason_counted(obs_on):
    run, events = _timeline_events(lambda: run_fingerprint(
        CASES["bernoulli-uniform"], "vectorized", trace_level=TraceLevel.FULL))
    _assert_per_event_fallback(run, events, "full_trace")


def test_no_positive_min_delay_fallback_reason_counted(obs_on):
    # Exponential delays are unbounded below: no positive slice window, so
    # the run takes the per-event loop like every other fallback.
    run, events = _timeline_events(
        lambda: run_fingerprint(CASES["bernoulli-exponential"], "vectorized"))
    _assert_per_event_fallback(run, events, "no_positive_min_delay")


def test_no_batch_consumer_decline_reason_counted(obs_on):
    # A baseline protocol does not declare that repeated ACKs are no-ops:
    # the one reason a sliced run is replayed entry by entry.
    run, events = _timeline_events(
        lambda: run_fingerprint(CASES["eager-rb"], "vectorized"))
    execution = run.execution
    assert (execution.dispatch_mode, execution.consume_mode,
            execution.fallback_reason) == ("batched", "boxed", None)
    assert _fallback_count("no_batch_consumer") == 1
    assert events == [execution]
    assert obs.REGISTRY.get("repro_engine_replayed_total") is None


def test_generic_rows_are_named_and_counted(obs_on):
    # A batched run whose rows the block sampler cannot replay stays
    # batched, and says how many rows it fated one send at a time.
    run, events = _timeline_events(
        lambda: run_fingerprint(CASES["reliable"], "vectorized"))
    assert run.execution.dispatch_mode == "batched"
    assert run.execution.generic_rows == CASES["reliable"].n_processes
    assert _fallback_count("generic_rows") == 1
    assert events == [run.execution]
    # ... and a vectorizable network reports none.
    run, events = _timeline_events(
        lambda: run_fingerprint(CASES["bernoulli-uniform"], "vectorized"))
    assert run.execution.generic_rows == 0
    assert _fallback_count("generic_rows") == 1
    assert events == [run.execution]


# --------------------------------------------------------------------------- #
# the repeat filter
# --------------------------------------------------------------------------- #
def _filter_counts():
    """``(consumed, replayed)`` as the filtered runs so far reported them."""
    return tuple(
        obs.REGISTRY.get(name).value()
        for name in ("repro_engine_batched_consumed_total",
                     "repro_engine_replayed_total"))


def test_unstable_view_windows_run_filtered_with_parity(obs_on):
    # ALL_PROCESSES rebuilds AΘ's output on every query as crashes are
    # detected.  Replay reads env.atheta() at each entry's own time, so the
    # filter needs nothing from the detector and the run stays filtered.
    report, events = _timeline_events(
        lambda: compare_engines(CASES["unstable-view-windows"]))
    assert report.ok, report.diff()
    assert events == [run.execution for run in report.runs]
    execution = events[1]
    assert (execution.dispatch_mode, execution.consume_mode,
            execution.fallback_reason) == ("batched", "batched", None)
    assert obs.REGISTRY.get("repro_engine_fallback_total") is None
    consumed, replayed = _filter_counts()
    assert 0 < replayed < consumed


def _run_with_delivery_listeners(engine_name):
    """The headline case with a listener on every process (``Scenario`` has
    no field for listeners, so they are attached on the built engine)."""
    built = build_engine(CASES["bernoulli-uniform"].with_(engine=engine_name))
    built.trace = TraceRecorder(enabled=True, level=TraceLevel.DELIVERIES)
    heard = []
    for index, process in built.processes.items():
        process.add_delivery_listener(
            lambda content, index=index: heard.append((index, content)))
    result = built.run()
    return result.execution, fingerprint(result), heard


def test_delivery_listeners_run_filtered_with_parity(obs_on):
    (execution, vec_fp, vec_heard), events = _timeline_events(
        lambda: _run_with_delivery_listeners("vectorized"))
    assert execution.dispatch_mode == execution.consume_mode == "batched"
    assert obs.REGISTRY.get("repro_engine_fallback_total") is None
    assert events == [execution]
    # Listeners observe the global reception order: what the filter does
    # not drop is replayed entry by entry exactly as the reference loop
    # dispatches it, and what it drops delivers nothing.
    _, ref_fp, ref_heard = _run_with_delivery_listeners("reference")
    assert vec_heard and vec_heard == ref_heard
    assert vec_fp == ref_fp


def test_batched_receiver_records_consumed_and_replayed(obs_on):
    run = run_fingerprint(CASES["bernoulli-uniform"], "vectorized")
    execution = run.execution
    assert execution.dispatch_mode == execution.consume_mode == "batched"
    fallbacks = obs.REGISTRY.get("repro_engine_fallback_total")
    assert fallbacks is None or not any(v for _, v in fallbacks.samples())
    consumed, replayed = _filter_counts()
    assert (consumed, replayed) == (execution.consumed, execution.replayed)
    # Every pool entry is a dispatched RECEIVE; the filter drops most.
    assert consumed == run.fingerprint["event_stats"]["receive"]
    assert 0 < replayed < consumed / 2
    assert obs.REGISTRY.get("repro_engine_consume_width") is None


def test_staggered_learning_still_skips_receptions(obs_on):
    # While AΘ converges, ACKs of one cell carry changing label sets; those
    # cells are replayed, the settled ones are not.
    run = run_fingerprint(CASES["staggered-learning"], "vectorized")
    assert run.execution.consume_mode == "batched"
    consumed, replayed = _filter_counts()
    assert 0 < replayed < consumed


def _filtered_engine(n=3):
    """A vectorized engine opened for filtered consumption whose processes
    record what they are handed instead of handling it."""
    engine = build_engine(CASES["bernoulli-uniform"].with_(
        engine="vectorized", n_processes=n))
    engine._interner = PayloadInterner()
    engine._open_filter()
    assert engine.consume_mode == "batched"
    seen = []
    for index, process in engine.processes.items():
        process.on_receive = \
            lambda payload, index=index: seen.append((index, payload))
    return engine, seen


def _consume(engine, entries):
    """One run made of ``(dst, payload)`` *entries*; the replayed count."""
    pids = np.array([engine._interner.pid_for(payload)
                     for _, payload in entries], dtype=np.intp)
    dsts = np.array([dst for dst, _ in entries], dtype=np.intp)
    times = np.linspace(1.0, 2.0, len(entries))
    live, replayed = engine._consume_run(times, dsts, pids, 0, len(entries))
    assert live == len(entries)
    return replayed


def test_in_run_rule_replays_every_entry_of_a_rewritten_cell():
    engine, seen = _filtered_engine()
    message = TaggedMessage("m", 1)
    labels = [frozenset({Label(1)}), frozenset({Label(1), Label(2)})]
    a, b = (LabeledAckPayload(message, 7, ls) for ls in labels)
    other = LabeledAckPayload(message, 8, labels[0])
    msg = MsgPayload(message)

    assert _consume(engine, [(0, a), (0, other)]) == 2
    # On record but not delivered (a changed view may yet let a repeat
    # deliver): replayed.
    assert _consume(engine, [(0, a), (0, other), (0, a)]) == 3
    engine.on_process_delivered(0, message)
    del seen[:]
    # Delivered, and every entry is the payload on record: all dropped —
    # for process 0 only, and never a MSG.
    assert _consume(engine, [(0, a), (0, other), (0, a)]) == 0
    assert _consume(engine, [(1, a), (0, msg), (0, a)]) == 2
    assert seen == [(1, a), (0, msg)]
    del seen[:]
    # A, B, A inside one run: the cell's record would change mid-run, so
    # all three are replayed, in order; the untouched cell stays dropped.
    assert _consume(engine, [(0, a), (0, other), (0, b), (0, a)]) == 3
    assert seen == [(0, a), (0, b), (0, a)]
    del seen[:]
    # The last of them is what went on record.
    assert _consume(engine, [(0, a), (0, other)]) == 0
    assert _consume(engine, [(0, b)]) == 1
    assert _consume(engine, [(0, b), (0, b)]) == 0
    assert seen == [(0, b)]


def test_filter_tables_grow_with_the_interner():
    engine, seen = _filtered_engine(n=2)
    width = engine._handled.shape[1]
    messages = [TaggedMessage(f"m{i}", i) for i in range(width + 5)]
    acks = [AckPayload(message, 1) for message in messages]
    assert _consume(engine, [(1, ack) for ack in acks]) == len(acks)
    for message in messages:
        engine.on_process_delivered(1, message)
    assert engine._handled.shape[1] >= len(acks)
    assert engine._delivered.shape[1] >= len(messages)
    assert _consume(engine, [(1, ack) for ack in acks]) == 0
    assert _consume(engine, [(0, ack) for ack in acks]) == len(acks)


def _sweep_scenarios(count=30, seed=20150525):
    """Random scenarios over everything the filter's exactness could
    depend on, from a fixed seed."""
    rng = random.Random(seed)
    scenarios = []
    for i in range(count):
        algorithm = rng.choice(["algorithm1", "algorithm2", "algorithm2"])
        n = rng.randint(4, 7)
        crash_count = rng.randint(0, (n - 1) // 2)
        crashes = {index: round(rng.uniform(0.5, 12.0), 2)
                   for index in rng.sample(range(n), crash_count)}
        low = rng.choice([0.05, 0.2])
        delay = rng.choice([DelaySpec.uniform(low, low + 0.6),
                            DelaySpec.fixed(low)])
        quiescent = algorithm == "algorithm2"
        scenarios.append(Scenario(
            name=f"sweep-{i}",
            algorithm=algorithm,
            n_processes=n,
            seed=rng.randrange(1 << 30),
            crashes=crashes,
            loss=LossSpec.bernoulli(rng.choice([0.0, 0.1, 0.3, 0.6])),
            delay=delay,
            fairness_bound=rng.choice([2, 5, None]),
            strict_equality=rng.random() < 0.4,
            fd_policy=rng.choice(["correct_only", "all_processes",
                                  "own_only"]),
            fd_learn_delay=rng.choice([0.0, 3.0, 8.0]),
            workload="burst",
            metadata={"burst_size": rng.randint(1, 5)},
            max_time=40.0,
            stop_when_quiescent=quiescent,
            stop_when_all_correct_delivered=not quiescent,
            drain_grace_period=2.0,
        ))
    return scenarios


@pytest.mark.parametrize("scenario", _sweep_scenarios(),
                         ids=lambda scenario: scenario.name)
def test_filtered_runs_match_reference_on_random_scenarios(scenario):
    report = compare_engines(scenario)
    assert report.ok, report.diff()
    execution = report.runs[1].execution
    assert (execution.dispatch_mode, execution.consume_mode) == \
        ("batched", "batched")


def test_send_side_records_flush_rows_and_one_chunk_per_broadcast(obs_on):
    scenario = CASES["bernoulli-uniform"]
    run = run_fingerprint(scenario, "vectorized")
    summary = run.fingerprint["metrics"]
    rows = obs.REGISTRY.get("repro_engine_send_batch_rows")
    ((_, (_, broadcasts, flushes)),) = rows.samples()
    assert 0 < flushes < broadcasts
    assert broadcasts * scenario.n_processes == summary["total_sends"]
    # One observation per broadcast that kept a copy, not one per flush.
    cells = obs.REGISTRY.get("repro_engine_chunk_cells")
    ((_, (_, copies, chunks)),) = cells.samples()
    assert copies == summary["total_sends"] - summary["total_drops"]
    assert flushes < chunks <= broadcasts


# --------------------------------------------------------------------------- #
# scenario serialisation
# --------------------------------------------------------------------------- #
def test_explicit_engine_round_trips_through_serialize():
    scenario = CASES["bernoulli-uniform"].with_(engine="vectorized")
    data = scenario_to_dict(scenario)
    assert data["engine"] == "vectorized"
    assert scenario_from_dict(data) == scenario


def test_default_engine_is_omitted_and_old_dicts_default_to_reference():
    scenario = CASES["bernoulli-uniform"]
    data = scenario_to_dict(scenario)
    assert "engine" not in data
    # Dicts written before the engines registry existed carry no key at
    # all; they must deserialise to the reference backend.
    assert scenario_from_dict(data).engine == "reference"
