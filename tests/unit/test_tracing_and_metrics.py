"""Unit tests for trace recording and metric collection."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import ResultStore
from repro.experiments.runner import default_scenario, run_scenario
from repro.simulation import tracing
from repro.simulation.metrics import MetricsCollector
from repro.simulation.tracing import TraceCategory, TraceLevel, TraceRecorder


class TestTraceRecorder:
    def test_record_and_len(self):
        trace = TraceRecorder()
        trace.record(1.0, TraceCategory.SEND, 0, dst=1)
        trace.record(2.0, TraceCategory.DROP, 0, dst=2)
        assert len(trace) == 2

    def test_disabled_recorder_is_noop(self):
        trace = TraceRecorder(enabled=False)
        assert trace.record(1.0, TraceCategory.SEND, 0) is None
        assert len(trace) == 0

    def test_filter_by_category(self):
        trace = TraceRecorder()
        trace.record(1.0, TraceCategory.SEND, 0)
        trace.record(1.5, TraceCategory.URB_DELIVER, 1, content="m")
        assert len(trace.filter(category=TraceCategory.SEND)) == 1

    def test_filter_by_process(self):
        trace = TraceRecorder()
        trace.record(1.0, TraceCategory.SEND, 0)
        trace.record(1.0, TraceCategory.SEND, 1)
        assert len(trace.filter(process=1)) == 1

    def test_filter_with_predicate(self):
        trace = TraceRecorder()
        trace.record(1.0, TraceCategory.SEND, 0, kind="MSG")
        trace.record(1.0, TraceCategory.SEND, 0, kind="ACK")
        only_acks = trace.filter(predicate=lambda e: e.detail("kind") == "ACK")
        assert len(only_acks) == 1

    def test_count(self):
        trace = TraceRecorder()
        for _ in range(3):
            trace.record(1.0, TraceCategory.CRASH, 0)
        assert trace.count(TraceCategory.CRASH) == 3
        assert trace.count(TraceCategory.SEND) == 0

    def test_first_and_last_time(self):
        trace = TraceRecorder()
        trace.record(1.0, TraceCategory.SEND, 0)
        trace.record(5.0, TraceCategory.SEND, 0)
        assert trace.first_time(TraceCategory.SEND) == 1.0
        assert trace.last_time(TraceCategory.SEND) == 5.0
        assert trace.last_time(TraceCategory.CRASH) is None

    def test_timeline_buckets(self):
        trace = TraceRecorder()
        for t in (0.5, 1.5, 1.6, 4.2):
            trace.record(t, TraceCategory.SEND, 0)
        timeline = trace.timeline(TraceCategory.SEND, bucket=1.0)
        counts = dict(timeline)
        assert counts[0.0] == 1
        assert counts[1.0] == 2
        assert counts[4.0] == 1

    def test_timeline_empty(self):
        assert TraceRecorder().timeline(TraceCategory.SEND, 1.0) == []

    def test_timeline_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            TraceRecorder().timeline(TraceCategory.SEND, 0.0)

    def test_to_dicts_round_trip(self):
        trace = TraceRecorder()
        trace.record(1.0, TraceCategory.URB_DELIVER, 2, content="m0", tag=7)
        row = trace.to_dicts()[0]
        assert row["category"] == "urb_deliver"
        assert row["process"] == 2
        assert row["content"] == "m0"

    def test_detail_default(self):
        trace = TraceRecorder()
        event = trace.record(1.0, TraceCategory.SEND, 0)
        assert event.detail("missing", 42) == 42


class TestChannelRows:
    """Per-copy channel records are rows until someone asks for events."""

    @pytest.mark.parametrize("recorder", [
        TraceRecorder(level=TraceLevel.DELIVERIES),
        TraceRecorder(level=TraceLevel.OFF),
        TraceRecorder(enabled=False),
    ])
    def test_record_copy_honours_the_level(self, recorder):
        recorder.record_copy(1.0, TraceCategory.SEND, 0, "MSG", "p", 1)
        assert len(recorder) == 0

    @pytest.mark.parametrize("recorder", [
        TraceRecorder(level=TraceLevel.DELIVERIES),
        TraceRecorder(enabled=False),
    ])
    def test_record_broadcast_honours_the_level(self, recorder):
        recorder.record_broadcast(1.0, 0, "MSG", "p", [2.0, None])
        assert len(recorder) == 0

    def test_record_broadcast_is_the_per_copy_records_interleaved(self):
        copies = [2.0, None, None, 1.5]
        bulk, single = TraceRecorder(), TraceRecorder()
        bulk.record_broadcast(1.0, 4, "MSG", "p", copies)
        for dst, deliver_time in enumerate(copies):
            single.record_copy(1.0, TraceCategory.SEND, 4, "MSG", "p", dst)
            if deliver_time is None:
                single.record_copy(1.0, TraceCategory.DROP, 4, "MSG", "p", dst)
        assert bulk.events == single.events
        assert [(e.category.value, e.detail("dst")) for e in bulk] == [
            ("send", 0), ("send", 1), ("drop", 1), ("send", 2), ("drop", 2),
            ("send", 3)]
        assert bulk.digest() == single.digest()

    def test_an_event_is_built_once(self):
        trace = TraceRecorder()
        trace.record_copy(1.0, TraceCategory.SEND, 0, "MSG", "p", 1)
        first = trace.events[0]
        assert trace.filter(category=TraceCategory.SEND)[0] is first
        assert next(iter(trace)) is first

    def test_sends_reads_rows_and_ready_made_events_alike(self):
        trace = TraceRecorder()
        trace.record_copy(1.0, TraceCategory.SEND, 0, "MSG", "a", 1)
        trace.record_copy(1.0, TraceCategory.DROP, 0, "MSG", "a", 1)
        trace.record(2.0, TraceCategory.SEND, 1, dst=0, kind="ACK", payload="b")
        trace.record(3.0, TraceCategory.SEND, 2)
        assert list(trace.sends()) == [(0, "a"), (1, "b"), (2, None)]
        trace.events
        assert list(trace.sends()) == [(0, "a"), (1, "b"), (2, None)]

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("algorithm", ["algorithm1", "algorithm2"])
    def test_full_trace_run_builds_no_channel_event(self, monkeypatch,
                                                    algorithm, engine):
        """A run, its three analyses and packing it for a store must leave
        every broadcast one row and every other channel record a row: an
        eager ``TraceEvent`` per copy is half of a campaign cell."""
        built, expanded = [], []

        def counting(**fields):
            built.append(fields["category"])
            return real(**fields)

        def expand(self):
            expanded.append(len(self._rows))
            real_expand(self)

        real, real_expand = tracing.TraceEvent, TraceRecorder._expand
        monkeypatch.setattr(tracing, "TraceEvent", counting)
        monkeypatch.setattr(TraceRecorder, "_expand", expand)
        result = run_scenario(default_scenario(
            algorithm, n_processes=4, engine=engine))
        assert result.verdict and result.quiescence and result.anonymity
        ResultStore.pack(result)
        trace = result.simulation.trace
        channel = sum(trace.count(category) for category in TraceCategory
                      if category.level is TraceLevel.FULL)
        assert channel > 100
        assert expanded == []
        assert all(category.level is TraceLevel.DELIVERIES
                   for category in built)
        assert len(built) == len(trace) - channel
        rows = len(trace._rows)
        # Asking expands the broadcasts once and builds each event once.
        assert len(trace.events) == len(built) == len(trace)
        assert len(expanded) == 1 and expanded[0] == rows < len(trace)
        trace.digest()
        assert len(built) == len(trace) and len(expanded) == 1

    def test_broadcast_rows_answer_head_queries_unexpanded(self):
        trace = TraceRecorder()
        trace.record_broadcast(1.0, 0, "MSG", "a", [2.0, None, 3.0])
        trace.record(1.5, TraceCategory.URB_DELIVER, 1, content="m")
        trace.record_broadcast(2.0, 0, "MSG", "a", [None])
        trace.record_broadcast(2.5, 1, "ACK", "b", [None, None])
        trace.record_broadcast(3.0, 1, "ACK", "c", [])  # books nothing
        assert len(trace) == 11 and len(trace._rows) == 4
        assert (trace.count(TraceCategory.SEND), trace.count(TraceCategory.DROP)) \
            == (6, 4)
        assert trace.first_time(TraceCategory.DROP) == 1.0
        assert trace.last_time(TraceCategory.SEND) == 2.5
        assert trace.timeline(TraceCategory.DROP, 1.0) == [(0.0, 0), (1.0, 1),
                                                           (2.0, 3)]
        # Adjacent broadcasts of one payload object by one sender are one run.
        assert list(trace.send_runs()) == [(0, "a", 4), (1, "b", 2)]
        # A pickled trace keeps its broadcast rows and still knows them.
        copy = pickle.loads(pickle.dumps(trace))
        assert len(trace._rows) == len(copy._rows) == 4 and len(copy) == 11
        assert [event.category.value for event in trace][:4] == [
            "send", "send", "drop", "send"]
        assert len(trace._rows) == len(trace) == 11
        assert copy.to_dicts() == trace.to_dicts()


class TestMetricsCollector:
    def test_send_counters(self):
        metrics = MetricsCollector()
        metrics.on_send_many(1.0, 0, "MSG", 1)
        metrics.on_send_many(2.0, 1, "ACK", 3)
        metrics.on_send_many(3.0, 1, "ACK", 0)  # an empty broadcast: no-op
        assert metrics.total_sends == 4
        assert metrics.sends_by_kind == {"MSG": 1, "ACK": 3}
        assert metrics.sends_by_process == {0: 1, 1: 3}
        assert metrics.last_send_time == 2.0
        # One cumulative timeline entry per copy.
        assert metrics.send_timeline == [(1.0, 1), (2.0, 2), (2.0, 3), (2.0, 4)]

    def test_drop_counters(self):
        metrics = MetricsCollector()
        metrics.on_drop_many(1.0, 0, "MSG", 2)
        metrics.on_drop_many(1.0, 0, "ACK", 0)  # nothing dropped: no key
        assert metrics.total_drops == 2
        assert metrics.drops_by_kind == {"MSG": 2}

    def test_latency_samples(self):
        metrics = MetricsCollector()
        metrics.on_urb_broadcast(1.0, 0, "m0")
        metrics.on_urb_deliver(3.5, 2, "m0")
        assert metrics.deliveries == 1
        assert metrics.latency_samples[0].latency == pytest.approx(2.5)

    def test_rebroadcast_keeps_first_time(self):
        metrics = MetricsCollector()
        metrics.on_urb_broadcast(1.0, 0, "m0")
        metrics.on_urb_broadcast(5.0, 1, "m0")
        metrics.on_urb_deliver(6.0, 2, "m0")
        assert metrics.latency_samples[0].latency == pytest.approx(5.0)

    def test_delivery_without_broadcast_uses_zero(self):
        metrics = MetricsCollector()
        metrics.on_urb_deliver(4.0, 0, "ghost")
        assert metrics.latency_samples[0].latency == pytest.approx(4.0)

    def test_cumulative_sends_at(self):
        metrics = MetricsCollector()
        for t in (1.0, 2.0, 3.0):
            metrics.on_send_many(t, 0, "MSG", 1)
        assert metrics.cumulative_sends_at(0.5) == 0
        assert metrics.cumulative_sends_at(2.0) == 2
        assert metrics.cumulative_sends_at(10.0) == 3

    def test_cumulative_sends_at_counts_every_copy_of_a_fan_out(self):
        metrics = MetricsCollector()
        metrics.on_send_many(1.0, 0, "MSG", 3)
        metrics.on_send_many(2.0, 1, "ACK", 2)
        assert metrics.cumulative_sends_at(1.0) == 3
        assert metrics.cumulative_sends_at(1.5) == 3
        assert metrics.cumulative_sends_at(2.0) == 5

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 4)),
                    max_size=20),
           st.lists(st.integers(-1, 10), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_cumulative_sends_at_is_the_linear_scan(self, steps, queries):
        """The binary search answers as the scan of the whole timeline
        did: ties, times before the first send and after the last."""
        metrics = MetricsCollector()
        time = 0.0
        for gap, fan_out in steps:
            time += gap / 4  # a gap of 0 repeats the previous send time
            metrics.on_send_many(time, 0, "MSG", fan_out)

        def scan(at):
            count = 0
            for t, cumulative in metrics.send_timeline:
                if t > at:
                    break
                count = cumulative
            return count

        probes = [q / 2 for q in queries] + [t for t, _ in
                                             metrics.send_timeline]
        for at in probes:
            assert metrics.cumulative_sends_at(at) == scan(at)

    def test_summary_empty(self):
        summary = MetricsCollector().summary()
        assert summary.total_sends == 0
        assert summary.mean_latency is None
        assert summary.p95_latency is None

    def test_summary_populated(self):
        metrics = MetricsCollector()
        metrics.on_urb_broadcast(0.0, 0, "m")
        metrics.on_send_many(0.5, 0, "MSG", 1)
        metrics.total_channel_deliveries += 1
        metrics.on_urb_deliver(1.0, 1, "m")
        metrics.on_finish(10.0)
        summary = metrics.summary()
        assert summary.total_sends == 1
        assert summary.total_channel_deliveries == 1
        assert summary.deliveries == 1
        assert summary.mean_latency == pytest.approx(1.0)
        assert summary.final_time == 10.0

    def test_summary_as_dict(self):
        data = MetricsCollector().summary().as_dict()
        assert "total_sends" in data
        assert "mean_latency" in data

    def test_latencies_array(self):
        metrics = MetricsCollector()
        metrics.on_urb_broadcast(0.0, 0, "m")
        metrics.on_urb_deliver(2.0, 1, "m")
        metrics.on_urb_deliver(4.0, 2, "m")
        assert list(metrics.latencies()) == [2.0, 4.0]
