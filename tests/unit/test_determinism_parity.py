"""Determinism parity tests for the hot-path overhaul.

The performance work (tuple-keyed pooled event queue, broadcast fast path,
level-gated tracing/metrics) carries one invariant: under
identical seeds, optimized paths must produce *bit-identical* traces,
metrics summaries and delivery logs.  These tests pin that invariant by
running the same scenario through different hot-path configurations and
comparing full digests.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.config import Scenario
from repro.experiments.parity import parity_cases, run_fingerprint
from repro.experiments.runner import build_engine
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.simulation.metrics import MetricsCollector, MetricsLevel
from repro.simulation.tracing import TraceLevel, TraceRecorder


def run_engine(scenario: Scenario, **engine_overrides):
    engine = build_engine(scenario)
    for name, value in engine_overrides.items():
        setattr(engine, name, value)
    return engine.run()


def fingerprint(result):
    """Everything observable about a run, as a comparable value."""
    return (
        result.trace.digest(),
        result.metrics_summary().as_dict(),
        {i: log.contents() for i, log in result.delivery_logs.items()},
        result.final_time,
        result.stop_reason,
        result.event_stats.as_dict(),
    )


BASE = Scenario(
    name="parity",
    algorithm="algorithm2",
    n_processes=6,
    seed=42,
    loss=LossSpec.bernoulli(0.2),
    delay=DelaySpec.uniform(0.05, 0.5),
    crashes={5: 8.0},
    workload="burst",
    metadata={"burst_size": 6},
    stop_when_quiescent=True,
    drain_grace_period=2.0,
    max_time=200.0,
)


class TestSameSeedParity:
    def test_identical_runs_are_bit_identical(self):
        assert fingerprint(run_engine(BASE)) == fingerprint(run_engine(BASE))

    def test_algorithm1_runs_are_bit_identical(self):
        scenario = BASE.with_(
            algorithm="algorithm1",
            crashes={},
            stop_when_quiescent=False,
            stop_when_all_correct_delivered=True,
            max_time=60.0,
        )
        assert fingerprint(run_engine(scenario)) == fingerprint(run_engine(scenario))

    def test_different_seeds_differ(self):
        a = run_engine(BASE)
        b = run_engine(BASE.with_seed(43))
        assert a.trace.digest() != b.trace.digest()


class TestGatingParity:
    def test_metrics_identical_with_and_without_tracing(self):
        """Disabling the trace recorder must not change metrics or logs."""
        traced = run_engine(BASE)
        untraced = run_engine(BASE.with_(trace_enabled=False))
        assert (
            traced.metrics_summary().as_dict()
            == untraced.metrics_summary().as_dict()
        )
        assert {i: log.contents() for i, log in traced.delivery_logs.items()} == {
            i: log.contents() for i, log in untraced.delivery_logs.items()
        }
        assert traced.final_time == untraced.final_time
        assert traced.stop_reason == untraced.stop_reason
        assert len(untraced.trace) == 0

    def test_deliveries_trace_level_is_a_subset_of_full(self):
        full = run_engine(BASE)
        gated = run_engine(
            BASE, trace=TraceRecorder(level=TraceLevel.DELIVERIES)
        )
        full_protocol = [
            (e.time, e.category, e.process, dict(e.details))
            for e in full.trace
            if gated.trace.wants(e.category)
        ]
        gated_events = [
            (e.time, e.category, e.process, dict(e.details))
            for e in gated.trace
        ]
        assert full_protocol == gated_events
        assert len(gated.trace) < len(full.trace)

    def test_counters_metrics_level_matches_full_aggregates(self):
        full = run_engine(BASE)
        counters = run_engine(
            BASE, metrics=MetricsCollector(level=MetricsLevel.COUNTERS)
        )
        full_summary = full.metrics_summary()
        counters_summary = counters.metrics_summary()
        assert counters_summary.total_sends == full_summary.total_sends
        assert counters_summary.total_drops == full_summary.total_drops
        assert counters_summary.deliveries == full_summary.deliveries
        assert counters_summary.sends_by_kind == full_summary.sends_by_kind
        assert counters_summary.last_send_time == full_summary.last_send_time
        # Per-event lists are gated out at COUNTERS level.
        assert counters.metrics.send_timeline == []
        assert counters.metrics.latency_samples == []
        assert counters_summary.mean_latency is None


class TestFastPathEdgeCases:
    def test_metrics_level_setter_refreshes_fast_flags(self):
        collector = MetricsCollector()
        assert collector.active
        collector.level = MetricsLevel.OFF
        assert not collector.active
        collector.on_send_many(1.0, 0, "MSG", 1)
        assert collector.total_sends == 0
        collector.level = MetricsLevel.FULL
        collector.on_send_many(1.0, 0, "MSG", 1)
        assert collector.total_sends == 1
        assert collector.send_timeline == [(1.0, 1)]


#: ``(trace.digest(), len(trace))`` of :func:`pinned_scenario` per algorithm,
#: computed at the last commit that stored one ``TraceEvent`` per record
#: (PR 14).  A storage change that moves any of them changed what a trace
#: says, not just how it is kept.
PINNED_FULL_TRACES = {
    "algorithm1": (
        "ebeba2422f4661e99b8e3ab9652d949a01393970a15f46d46a14d9a940406170",
        1897),
    "algorithm2": (
        "3eb144ac02ea7147236c1afdedfb56a5901a27580165670645a06623e99f242d",
        454),
    "algorithm1_noretx": (
        "2569d0b0ab2b5c7357c09b7ba65e1524cee91196db5dc4c37f0193431dea40f4",
        90),
    "best_effort": (
        "916ae9eec8bde306d01bc800cfce18aa93280cb39388625def91850dd65b71e0",
        27),
    "eager_rb": (
        "047eb149f8900f84a03ad4a402f76e11ab9ef66ba32524d7564df6f6c884e159",
        75),
    "identified_urb": (
        "06b9baf2d76f7c615222d14e1cac12624b41ee1716b004a241c8fe317ecd2a73",
        1897),
}


def pinned_scenario(algorithm: str) -> Scenario:
    return Scenario(
        name="pinned", algorithm=algorithm, n_processes=4, seed=2024,
        loss=LossSpec.bernoulli(0.2), delay=DelaySpec.uniform(0.05, 0.5),
        crashes={3: 2.0}, workload="burst", metadata={"burst_size": 2},
        max_time=12.0,
    )


class TestPinnedFullTraceDigests:
    @pytest.mark.parametrize("algorithm", sorted(PINNED_FULL_TRACES))
    def test_digest_and_length_are_the_pinned_ones(self, algorithm):
        trace = run_engine(pinned_scenario(algorithm)).trace
        assert (trace.digest(), len(trace)) == PINNED_FULL_TRACES[algorithm]


#: SHA-256 prefix of the reference engine's ``run_fingerprint`` of every
#: Algorithm 2 case of ``parity_cases()``, recorded at the last commit that
#: stored ``label_counter`` one label at a time.  Parity cannot see a change
#: to the protocol's own bookkeeping (both engines run the same handlers):
#: a bookkeeping change that moves any of these changed what the protocol
#: does, not just how it keeps count.
PINNED_ALGORITHM2_FINGERPRINTS = {
    "bernoulli-uniform": "2b03857764641a1a",
    "noloss-uniform": "bd9d478465838e4e",
    "bernoulli-fixed": "9112092997823ef6",
    "bernoulli-exponential": "1f386ae22c6c0fcd",
    "heavy-loss-guard": "d03d5ec23e59af7e",
    "all-drop": "7fd1223a096a2831",
    "crashes-mid-run": "94b3f35382c9188c",
    "staggered-learning": "dee2b9986e52283a",
    "reliable": "bd9d478465838e4e",
    "quasi-reliable": "2d5dd52c40eedbb1",
    "strict-equality": "2b03857764641a1a",
    "strict-equality-crashes": "94b3f35382c9188c",
    "unstable-view-windows": "6fff01523085d265",
    # Recorded at the last commit with one view builder per policy.
    "all-processes-learning": "8eaab0be11dbc26c",
    "own-only": "efaf5515c811f98b",
    # Recorded at the last commit that flushed the outbox once per TICK.
    "tick-ties": "508dddbf96487e05",
}


@pytest.mark.parametrize("case", [
    case for case in parity_cases() if case.algorithm == "algorithm2"
], ids=lambda case: case.name)
def test_reference_fingerprint_is_the_pinned_one(case):
    run = run_fingerprint(case, "reference")
    encoded = json.dumps(run.fingerprint, sort_keys=True).encode("utf-8")
    assert (hashlib.sha256(encoded).hexdigest()[:16]
            == PINNED_ALGORITHM2_FINGERPRINTS[case.name])


#: The same digests for Algorithm 1: the ``algorithm1`` case of
#: ``parity_cases()``, and every loss, delay, channel and crash variant run
#: under Algorithm 1 instead (``case.with_(algorithm="algorithm1")``),
#: recorded at the last commit that built a new ``AckPayload`` on every MSG
#: reception.  ``strict-equality*``, ``unstable-view-windows``,
#: ``all-processes-learning`` and ``own-only`` differ from a pinned case
#: only in Algorithm 2 or detector settings, so under Algorithm 1 they are
#: the same runs and are left out; ``tick-ties`` has its own Algorithm 1
#: case, ``tick-ties-algorithm1``.
PINNED_ALGORITHM1_FINGERPRINTS = {
    "algorithm1": "f1da6b91d2c9558f",
    "bernoulli-uniform": "d16652222ba91d35",
    "noloss-uniform": "2ce150c939ccc1a4",
    "bernoulli-fixed": "5f1b9b082a2235e9",
    "bernoulli-exponential": "f7392d4d9d2e99d4",
    "heavy-loss-guard": "be2bc0ba73acfb1c",
    "all-drop": "a897d5eb26095541",
    "crashes-mid-run": "c58e3302b2c5957e",
    "staggered-learning": "8025156d203a4476",
    "reliable": "2ce150c939ccc1a4",
    "quasi-reliable": "7af690ba48bd09c1",
    # Recorded at the last commit that flushed the outbox once per TICK.
    "tick-ties-algorithm1": "02b1db0beea071f5",
}


@pytest.mark.parametrize("case", [
    case.with_(algorithm="algorithm1") for case in parity_cases()
    if case.name in PINNED_ALGORITHM1_FINGERPRINTS
], ids=lambda case: case.name)
def test_algorithm1_reference_fingerprint_is_the_pinned_one(case):
    run = run_fingerprint(case, "reference")
    encoded = json.dumps(run.fingerprint, sort_keys=True).encode("utf-8")
    assert (hashlib.sha256(encoded).hexdigest()[:16]
            == PINNED_ALGORITHM1_FINGERPRINTS[case.name])
