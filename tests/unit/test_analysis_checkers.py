"""Unit tests for the URB property checkers, quiescence analysis and
anonymity audits, exercised on hand-built runs."""

import dataclasses

import pytest

from repro.analysis.anonymity import (
    audit_ack_tag_uniqueness,
    audit_anonymity,
    audit_payload_opacity,
)
from repro.analysis.properties import (
    check_correct_agreement,
    check_uniform_agreement,
    check_uniform_integrity,
    check_urb_properties,
    check_validity,
)
from repro.analysis.quiescence import (
    analyze_quiescence,
    cumulative_send_curve,
    send_histogram,
)
from repro.core.delivery import DeliveryLog
from repro.core.messages import AckPayload, MsgPayload, TaggedMessage
from repro.experiments.config import Scenario
from repro.experiments.runner import run_scenario
from repro.network.loss import LossSpec
from repro.simulation.engine import ExecutionRecord, SimulationResult
from repro.simulation.config import SimulationConfig
from repro.simulation.events import EventStats
from repro.simulation.faults import CrashSchedule
from repro.simulation.metrics import MetricsCollector
from repro.simulation.tracing import TraceCategory, TraceRecorder
from repro.workloads.generators import SingleBroadcast


def build_result(n=3, crashes=None, broadcasts=(), deliveries=(), sends=(),
                 final_time=50.0):
    """Hand-build a SimulationResult from event descriptions.

    broadcasts: iterable of (time, process, content)
    deliveries: iterable of (time, process, content, tag)
    sends:      iterable of (time, src, dst, kind, payload)
    """
    trace = TraceRecorder()
    metrics = MetricsCollector()
    logs = {i: DeliveryLog() for i in range(n)}
    for time, process, content in broadcasts:
        trace.record(time, TraceCategory.URB_BROADCAST, process, content=content)
        metrics.on_urb_broadcast(time, process, content)
    for time, src, dst, kind, payload in sends:
        trace.record(time, TraceCategory.SEND, src, dst=dst, kind=kind,
                     payload=payload)
        metrics.on_send_many(time, src, kind, 1)
    for time, process, content, tag in deliveries:
        trace.record(time, TraceCategory.URB_DELIVER, process, content=content,
                     tag=tag)
        metrics.on_urb_deliver(time, process, content)
        message = TaggedMessage(content, tag)
        if message not in logs[process]:
            logs[process].append(message)
    metrics.on_finish(final_time)
    schedule = CrashSchedule.crash_at(n, crashes or {})
    return SimulationResult(
        config=SimulationConfig(n_processes=n, max_time=final_time),
        crash_schedule=schedule,
        trace=trace,
        metrics=metrics,
        delivery_logs=logs,
        processes={},
        expected_contents=tuple(content for _, _, content in broadcasts),
        final_time=final_time,
        stop_reason="horizon",
        execution=ExecutionRecord("reference", "per-event", None, None, 0),
        event_stats=EventStats(),
    )


class TestValidity:
    def test_holds_when_correct_sender_delivers(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 0, "m", 7), (1.0, 1, "m", 7), (1.0, 2, "m", 7)],
        )
        assert check_validity(result).holds

    def test_violated_when_correct_sender_never_delivers(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 1, "m", 7), (1.0, 2, "m", 7)],
        )
        verdict = check_validity(result)
        assert not verdict.holds
        assert "p0" in verdict.violations[0]

    def test_faulty_sender_exempt(self):
        result = build_result(
            crashes={0: 5.0},
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 1, "m", 7), (1.0, 2, "m", 7)],
        )
        assert check_validity(result).holds

    def test_vacuous_with_no_broadcasts(self):
        assert check_validity(build_result()).holds


class TestUniformAgreement:
    def test_holds_when_all_correct_deliver(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 0, "m", 7), (1.5, 1, "m", 7), (2.0, 2, "m", 7)],
        )
        assert check_uniform_agreement(result).holds

    def test_violated_when_a_correct_process_misses_it(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 0, "m", 7)],
        )
        verdict = check_uniform_agreement(result)
        assert not verdict.holds
        assert len(verdict.violations) == 2  # p1 and p2 both missed it

    def test_delivery_by_faulty_process_obligates_correct_ones(self):
        # The "uniform" part: even a delivery by a process that later crashes
        # forces every correct process to deliver.
        result = build_result(
            crashes={2: 3.0},
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 2, "m", 7)],
        )
        assert not check_uniform_agreement(result).holds

    def test_faulty_processes_not_required_to_deliver(self):
        result = build_result(
            crashes={2: 3.0},
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 0, "m", 7), (1.0, 1, "m", 7)],
        )
        assert check_uniform_agreement(result).holds

    def test_correct_only_agreement_weaker(self):
        # Delivered only by a faulty process: plain agreement-among-correct
        # holds (vacuously), uniform agreement does not.
        result = build_result(
            crashes={2: 3.0},
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 2, "m", 7)],
        )
        assert check_correct_agreement(result).holds
        assert not check_uniform_agreement(result).holds


class TestUniformIntegrity:
    def test_holds_for_single_deliveries_of_broadcast_content(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 0, "m", 7), (1.0, 1, "m", 7), (1.0, 2, "m", 7)],
        )
        assert check_uniform_integrity(result).holds

    def test_violated_by_duplicate_delivery(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 1, "m", 7), (2.0, 1, "m", 7),
                        (1.0, 0, "m", 7), (1.0, 2, "m", 7)],
        )
        # Note: the hand-built delivery log would reject duplicates, so feed
        # the duplicate only through the trace.
        verdict = check_uniform_integrity(result)
        assert not verdict.holds

    def test_violated_by_delivery_of_unbroadcast_content(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 1, "ghost", 9), (1.0, 0, "m", 7),
                        (1.0, 1, "m", 7), (1.0, 2, "m", 7)],
        )
        assert not check_uniform_integrity(result).holds

    def test_violated_by_delivery_before_broadcast(self):
        result = build_result(
            broadcasts=[(5.0, 0, "m")],
            deliveries=[(1.0, 1, "m", 7), (6.0, 0, "m", 7), (6.0, 2, "m", 7)],
        )
        assert not check_uniform_integrity(result).holds


def _duplicate_tolerant_build(**kwargs):
    return build_result(**kwargs)


class TestCombinedVerdict:
    def test_all_hold(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 0, "m", 7), (1.0, 1, "m", 7), (1.0, 2, "m", 7)],
        )
        verdict = check_urb_properties(result)
        assert verdict.all_hold
        assert verdict.violations() == []
        assert "OK" in verdict.describe()

    def test_reports_all_violations(self):
        result = build_result(
            broadcasts=[(0.0, 0, "m")],
            deliveries=[(1.0, 1, "ghost", 9)],
        )
        verdict = check_urb_properties(result)
        assert not verdict.all_hold
        assert len(verdict.violations()) >= 2


class TestQuiescenceAnalysis:
    def test_quiescent_run(self):
        result = build_result(
            sends=[(1.0, 0, 1, "MSG", None), (2.0, 0, 1, "MSG", None)],
            final_time=50.0,
        )
        report = analyze_quiescence(result, required_idle_tail=5.0)
        assert report.quiescent
        assert report.last_send_time == 2.0
        assert report.idle_tail == pytest.approx(48.0)

    def test_non_quiescent_run(self):
        result = build_result(
            sends=[(float(t), 0, 1, "MSG", None) for t in range(50)],
            final_time=50.0,
        )
        report = analyze_quiescence(result, required_idle_tail=5.0)
        assert not report.quiescent

    def test_no_sends_at_all(self):
        report = analyze_quiescence(build_result(final_time=10.0))
        assert report.quiescent
        assert report.last_send_time is None
        assert report.total_sends == 0

    def test_default_idle_tail_uses_tick_interval(self):
        result = build_result(final_time=10.0)
        report = analyze_quiescence(result)
        assert report.required_idle_tail == pytest.approx(
            2.0 * result.config.tick_interval
        )

    def test_histogram_present(self):
        result = build_result(
            sends=[(0.5, 0, 1, "MSG", None), (7.0, 0, 1, "MSG", None)],
            final_time=10.0,
        )
        assert dict(send_histogram(result, 5.0)) == {0.0: 1, 5.0: 1}
        assert not hasattr(analyze_quiescence(result), "sends_per_window")

    def test_histogram_falls_back_to_the_metrics_timeline(self):
        sends = [(0.5, 0, 1, "MSG", None), (7.0, 0, 1, "MSG", None)]
        traced = build_result(sends=sends, final_time=10.0)
        untraced = dataclasses.replace(traced, trace=TraceRecorder())
        assert send_histogram(untraced, 5.0) == send_histogram(traced, 5.0)
        with pytest.raises(ValueError):
            send_histogram(traced, 0.0)

    def test_cumulative_send_curve_monotone(self):
        result = build_result(
            sends=[(float(t), 0, 1, "MSG", None) for t in range(10)],
            final_time=20.0,
        )
        curve = cumulative_send_curve(result, n_points=5)
        values = [v for _, v in curve]
        assert values == sorted(values)
        assert values[-1] == 10

    def test_cumulative_curve_rejects_single_point(self):
        with pytest.raises(ValueError):
            cumulative_send_curve(build_result(), n_points=1)

    def test_describe_mentions_status(self):
        report = analyze_quiescence(build_result(final_time=10.0))
        assert "quiescent" in report.describe()


class TestAnonymityAudit:
    def test_clean_run_passes(self):
        message = TaggedMessage("m", 1)
        result = build_result(
            sends=[
                (1.0, 0, 1, "ACK", AckPayload(message, 100)),
                (1.0, 1, 0, "ACK", AckPayload(message, 200)),
            ]
        )
        audit = audit_anonymity(result)
        assert audit.passed

    def test_shared_ack_tag_across_processes_fails(self):
        message = TaggedMessage("m", 1)
        result = build_result(
            sends=[
                (1.0, 0, 1, "ACK", AckPayload(message, 100)),
                (1.0, 1, 0, "ACK", AckPayload(message, 100)),
            ]
        )
        ok, violations = audit_ack_tag_uniqueness(result)
        assert not ok
        assert violations

    def test_process_changing_its_ack_tag_fails(self):
        message = TaggedMessage("m", 1)
        result = build_result(
            sends=[
                (1.0, 0, 1, "ACK", AckPayload(message, 100)),
                (2.0, 0, 1, "ACK", AckPayload(message, 101)),
            ]
        )
        ok, violations = audit_ack_tag_uniqueness(result)
        assert not ok

    def test_non_standard_payload_fails_opacity(self):
        result = build_result(sends=[(1.0, 0, 1, "weird", object())])
        audit = audit_anonymity(result)
        assert not audit.payloads_opaque
        assert not audit.passed

    def test_identified_baseline_exempt(self):
        result = build_result(sends=[(1.0, 0, 1, "weird", object())])
        audit = audit_anonymity(result, allow_identified=True)
        assert audit.payloads_opaque

    @pytest.mark.parametrize("as_rows", [False, True],
                             ids=["events", "rows"])
    def test_violation_strings_are_those_of_the_event_store(self, as_rows):
        """A duplicated ``tag_ack``, a process changing its tag and
        non-standard payloads, copies interleaved: the strings, their order
        and their multiplicity as the one-event-per-record store (PR 14)
        reported them, whether the sends are ready-made events or rows."""
        message = TaggedMessage("m", 1)
        shared = AckPayload(message, 100)
        sends = [
            (1.0, 0, 0, "MSG", MsgPayload(message)),
            (1.0, 0, 1, "MSG", MsgPayload(message)),
            (2.0, 0, 0, "ACK", shared),
            (2.0, 0, 1, "ACK", shared),
            (2.5, 1, 0, "ACK", AckPayload(message, 100)),
            (2.5, 1, 1, "ACK", AckPayload(message, 100)),
            (3.0, 1, 0, "str", "p1-was-here"),
            (3.0, 1, 1, "str", "p1-was-here"),
            (3.5, 0, 1, "ACK", AckPayload(message, 101)),
            (4.0, 2, 0, "tuple", (2, "x")),
            (4.5, 1, 0, "str", "p1-was-here"),
        ]
        if as_rows:
            result = build_result()
            for time, src, dst, kind, payload in sends:
                result.trace.record_copy(
                    time, TraceCategory.SEND, src, kind, payload, dst)
        else:
            result = build_result(sends=sends)
        tag_violations = [
            "ack tag 100 for message ('m', 1) was used by multiple "
            "processes: [0, 1]",
            "process p0 used multiple ack tags for message ('m', 1): "
            "[100, 101]",
        ]
        opacity_violations = [
            "p1 sent a non-standard payload str",
            "p1 sent a non-standard payload str",
            "p2 sent a non-standard payload tuple",
            "p1 sent a non-standard payload str",
        ]
        assert audit_anonymity(result).violations == tuple(
            tag_violations + opacity_violations)
        # Each public audit alone reports its own share of that one pass.
        assert audit_ack_tag_uniqueness(result) == (False, tag_violations)
        assert audit_payload_opacity(result) == (False, opacity_violations)
        assert audit_payload_opacity(result, allow_identified=True) == (True, [])

    def test_one_payload_object_sent_by_two_processes_is_still_caught(self):
        """Copies of one broadcast are booked once; the same object in
        another process's hands is not a copy."""
        shared = AckPayload(TaggedMessage("m", 1), 100)
        result = build_result(
            sends=[(1.0, 0, 1, "ACK", shared), (1.0, 1, 0, "ACK", shared)]
        )
        ok, violations = audit_ack_tag_uniqueness(result)
        assert not ok and len(violations) == 1


class TestOnRealRun:
    def test_checkers_agree_with_runner(self):
        scenario = Scenario(
            algorithm="algorithm1", n_processes=4, loss=LossSpec.bernoulli(0.1),
            max_time=60.0, stop_when_all_correct_delivered=True,
            workload=SingleBroadcast(), seed=3,
        )
        result = run_scenario(scenario)
        assert check_urb_properties(result.simulation).all_hold
        assert result.all_properties_hold
