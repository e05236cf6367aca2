"""Unit tests for the observability core: registry semantics, the
enabled/disabled fast flag, Prometheus and JSON exposition, the timeline
sink, alert-rule evaluation, and thread safety of concurrent updates."""

from __future__ import annotations

import gc
import io
import json
import threading

import pytest

from repro import obs
from repro.obs.alerts import AlertRule, evaluate, load_rules
from repro.obs.registry import Counter, Gauge, Histogram


@pytest.fixture(autouse=True)
def clean_registry():
    """Every test starts from an empty, disabled process registry."""
    obs.reset()
    yield
    obs.reset()
    obs.set_timeline(None)


class TestRegistry:
    def test_disabled_recording_is_a_no_op(self):
        counter = obs.counter("t_total", "help")
        counter.inc(5)
        assert counter.value() == 0.0
        obs.enable()
        counter.inc(5)
        assert counter.value() == 5.0
        obs.disable()
        counter.inc(5)
        assert counter.value() == 5.0

    def test_counter_labels_and_monotonicity(self):
        obs.enable()
        counter = obs.counter("runs_total", "runs", ("engine",))
        counter.inc(engine="reference")
        counter.inc(2, engine="vectorized")
        assert counter.value(engine="reference") == 1.0
        assert counter.value(engine="vectorized") == 2.0
        with pytest.raises(ValueError):
            counter.inc(-1, engine="reference")
        with pytest.raises(ValueError):
            counter.inc(engine="reference", extra="nope")

    def test_gauge_moves_both_ways(self):
        obs.enable()
        gauge = obs.gauge("in_flight", "in flight")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value() == 8.0

    def test_histogram_buckets_cumulate_in_samples(self):
        obs.enable()
        hist = obs.histogram("lat_seconds", "latency",
                             buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        ((values, (cumulative, total, count)),) = hist.samples()
        assert values == ()
        assert cumulative == [1, 2, 3]
        assert count == 4
        assert total == pytest.approx(105.0)

    def test_redeclare_same_name_returns_same_instrument(self):
        first = obs.counter("same_total", "help", ("a",))
        second = obs.counter("same_total", "ignored", ("a",))
        assert first is second
        with pytest.raises(ValueError):
            obs.counter("same_total", "help", ("b",))
        with pytest.raises(ValueError):
            obs.gauge("same_total", "help", ("a",))

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            obs.counter("0bad", "help")
        with pytest.raises(ValueError):
            obs.counter("ok_total", "help", ("bad-label",))

    def test_unlabelled_instruments_expose_zero_children(self):
        obs.counter("zero_total", "z")
        obs.gauge("zero_gauge", "z")
        text = obs.render_prometheus()
        assert "zero_total 0" in text
        assert "zero_gauge 0" in text


class TestThreadSafety:
    def test_concurrent_counter_updates_lose_nothing(self):
        obs.enable()
        counter = obs.counter("hammer_total", "h", ("worker",))
        per_thread = 2000

        def hammer(worker: int) -> None:
            for _ in range(per_thread):
                counter.inc(worker=str(worker % 2))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(value for _, value in counter.samples())
        assert total == 8 * per_thread

    def test_concurrent_histogram_observations_lose_nothing(self):
        obs.enable()
        hist = obs.histogram("hammer_seconds", "h", buckets=(0.5, 1.5))
        per_thread = 2000

        def hammer() -> None:
            for i in range(per_thread):
                hist.observe(i % 2)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ((_, (cumulative, total, count)),) = hist.samples()
        assert count == 8 * per_thread
        assert cumulative[0] == 8 * per_thread // 2
        assert total == pytest.approx(8 * per_thread // 2)


class TestGcInstrument:
    """``enable()`` installs one ``gc.callbacks`` entry; ``disable()``
    removes it.  Off by default, nothing installed when disabled."""

    def test_installed_once_by_enable_and_removed_by_disable(self):
        installed = len(gc.callbacks)
        obs.enable()
        obs.enable()
        assert len(gc.callbacks) == installed + 1
        obs.disable()
        assert len(gc.callbacks) == installed
        obs.disable()
        obs.enable()
        obs.reset()
        assert len(gc.callbacks) == installed

    def test_counts_passes_and_seconds_by_generation(self):
        obs.enable()
        passes = obs.REGISTRY.get("repro_gc_collections_total")
        seconds = obs.REGISTRY.get("repro_gc_seconds_total")
        # All three children exist from the start (zero-valued series).
        assert [labels for labels, _ in passes.samples()] == [
            ("0",), ("1",), ("2",)]
        before = passes.value(generation="2")
        cycle: list = []
        cycle.append(cycle)
        del cycle
        gc.collect()
        assert passes.value(generation="2") == before + 1
        assert seconds.value(generation="2") > 0.0
        obs.disable()
        gc.collect()
        assert passes.value(generation="2") == before + 1

    def test_a_collection_under_an_instrument_lock_does_not_deadlock(self):
        """``samples()`` allocates while holding the counter's lock, and a
        collection can start on any allocation: with a plain ``Lock`` the
        callback's ``inc`` would wait for its own thread forever."""
        obs.enable()

        def scrape() -> None:
            for i in range(2000):
                obs.snapshot()
                obs.counter(f"churn_{i % 20}_total", "x").inc()

        thread = threading.Thread(target=scrape, daemon=True)
        thresholds = gc.get_threshold()
        gc.set_threshold(2)
        try:
            thread.start()
            thread.join(timeout=30)
        finally:
            gc.set_threshold(*thresholds)
        assert not thread.is_alive(), "deadlocked inside the gc callback"
        assert obs.REGISTRY.get(
            "repro_gc_collections_total").value(generation="0") > 0


class TestExposition:
    def _populate(self):
        obs.enable()
        obs.counter("runs_total", "Completed runs.", ("engine",)).inc(
            3, engine="ref\\erence\n")
        obs.gauge("workers", "Active workers.").set(2)
        obs.histogram("cell_seconds", "Cell wall time.",
                      buckets=(1.0, 2.0)).observe(1.5)

    def test_prometheus_text_format(self):
        self._populate()
        text = obs.render_prometheus()
        assert "# HELP runs_total Completed runs." in text
        assert "# TYPE runs_total counter" in text
        # Label values escape backslash and newline.
        assert 'runs_total{engine="ref\\\\erence\\n"} 3' in text
        assert "workers 2" in text
        assert 'cell_seconds_bucket{le="1"} 0' in text
        assert 'cell_seconds_bucket{le="2"} 1' in text
        assert 'cell_seconds_bucket{le="+Inf"} 1' in text
        assert "cell_seconds_sum 1.5" in text
        assert "cell_seconds_count 1" in text
        assert text.endswith("\n")

    def test_json_snapshot_schema(self):
        self._populate()
        data = json.loads(obs.render_json())
        assert data["snapshot_version"] == 1
        metrics = data["metrics"]
        assert metrics["runs_total"]["type"] == "counter"
        assert metrics["runs_total"]["labelnames"] == ["engine"]
        hist = metrics["cell_seconds"]["samples"][0]
        assert hist["count"] == 1
        assert hist["buckets"]["+Inf"] == 1
        # Stable serialisation: two renders of the same state agree
        # everywhere except the generation timestamp.
        second = json.loads(obs.render_json())
        second["generated_unix"] = data["generated_unix"]
        assert second == data


class TestTimeline:
    def test_emit_and_phase_write_json_lines(self):
        stream = io.StringIO()
        timeline = obs.Timeline(stream)
        previous = obs.set_timeline(timeline)
        try:
            assert previous is None
            assert obs.timeline_active()
            obs.emit("store.hit", store="s")
            with obs.phase("expand", cells=7):
                pass
            with pytest.raises(RuntimeError):
                with obs.phase("explode"):
                    raise RuntimeError("boom")
        finally:
            obs.set_timeline(previous)
        lines = [json.loads(line) for line
                 in stream.getvalue().splitlines()]
        assert [line["kind"] for line in lines] == ["store.hit", "phase",
                                                    "phase"]
        assert lines[1]["name"] == "expand"
        assert lines[1]["status"] == "ok"
        assert lines[1]["cells"] == 7
        assert lines[1]["wall_seconds"] >= 0
        assert lines[2]["status"] == "error"
        assert "boom" in lines[2]["error"]

    def test_phase_error_records_status_and_reraises(self):
        stream = io.StringIO()
        obs.set_timeline(obs.Timeline(stream))
        with pytest.raises(KeyError, match="gone"):
            with obs.phase("load", attempt=2):
                raise KeyError("gone")
        (record,) = [json.loads(line) for line
                     in stream.getvalue().splitlines()]
        assert record["kind"] == "phase"
        assert record["name"] == "load"
        assert record["status"] == "error"
        assert "gone" in record["error"]
        assert record["attempt"] == 2
        assert record["wall_seconds"] >= 0

    def test_phase_keeps_caller_supplied_error_field(self):
        stream = io.StringIO()
        obs.set_timeline(obs.Timeline(stream))
        with pytest.raises(RuntimeError):
            with obs.phase("load", error="preset"):
                raise RuntimeError("shadowed")
        (record,) = [json.loads(line) for line
                     in stream.getvalue().splitlines()]
        assert record["status"] == "error"
        assert record["error"] == "preset"

    def test_inactive_timeline_is_transparent(self):
        assert not obs.timeline_active()
        obs.emit("ignored")
        with obs.phase("ignored"):
            pass

    def test_file_sink_appends(self, tmp_path):
        target = tmp_path / "run.jsonl"
        timeline = obs.Timeline(target)
        timeline.emit("a")
        timeline.close()
        timeline = obs.Timeline(target)
        timeline.emit("b")
        timeline.close()
        kinds = [json.loads(line)["kind"]
                 for line in target.read_text().splitlines()]
        assert kinds == ["a", "b"]


class TestAlerts:
    def _snapshot(self):
        obs.enable()
        obs.counter("reclaims_total", "r").inc(30)
        obs.histogram("cell_seconds", "c", buckets=(1.0, 8.0)).observe(6.0)
        obs.counter("cells_total", "c", ("status",)).inc(2, status="failed")
        return obs.snapshot()

    def test_rules_fire_and_exit_code(self):
        report = evaluate(self._snapshot(), (
            AlertRule(name="storm", metric="reclaims_total",
                      op=">", threshold=25),
            AlertRule(name="slow", metric="cell_seconds",
                      quantile=0.99, op=">", threshold=100.0),
            AlertRule(name="failures", metric="cells_total",
                      labels={"status": "failed"}, op=">", threshold=0),
            AlertRule(name="absent", metric="missing_total",
                      op=">", threshold=0),
        ))
        assert [r.rule.name for r in report.firing] == ["storm", "failures"]
        assert report.exit_code == 1
        text = report.describe()
        assert "FIRING" in text and "2 of 4 rule(s) firing" in text

    def test_quantile_estimates_from_buckets(self):
        report = evaluate(self._snapshot(), (
            AlertRule(name="p50", metric="cell_seconds",
                      quantile=0.5, op=">", threshold=0.0),
        ))
        (result,) = report.results
        # One observation at 6.0 lands in the (1, 8] bucket; the linear
        # interpolation estimate falls inside that bucket.
        assert 1.0 < result.value <= 8.0

    def test_if_absent_modes(self):
        rule = {"name": "a", "metric": "missing_total", "op": ">",
                "threshold": 0}
        skip = evaluate({}, (AlertRule(**{**rule, "if_absent": "skip"}),))
        fire = evaluate({}, (AlertRule(**{**rule, "if_absent": "fire"}),))
        zero = evaluate({}, (AlertRule(**rule),))
        assert skip.exit_code == 0
        assert fire.exit_code == 1
        assert zero.exit_code == 0

    def test_load_rules_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "a", "metric": "m_total", "op": ">", "threshold": 1},
        ]}))
        (rule,) = load_rules(path)
        assert rule.name == "a" and rule.threshold == 1.0
        path.write_text(json.dumps([{"name": "b", "metric": "m",
                                     "op": ">", "threshold": 0,
                                     "bogus": 1}]))
        with pytest.raises(ValueError):
            load_rules(path)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            AlertRule(name="a", metric="m", op="~", threshold=0)
        with pytest.raises(ValueError):
            AlertRule(name="a", metric="m", op=">", threshold=0,
                      quantile=2.0)
        with pytest.raises(ValueError):
            AlertRule(name="a", metric="m", op=">", threshold=0,
                      if_absent="explode")

    def test_default_rules_quiet_on_healthy_snapshot(self):
        obs.enable()
        obs.counter("repro_sim_runs_total", "r", ("engine",
                                                  "dispatch_mode")).inc(
            engine="reference", dispatch_mode="per-event")
        report = evaluate(obs.snapshot())
        assert report.exit_code == 0


class TestDeterminismGuards:
    def test_reset_disables_and_clears(self):
        obs.enable()
        obs.counter("x_total", "x").inc()
        obs.reset()
        assert not obs.enabled()
        assert obs.REGISTRY.get("x_total") is None
