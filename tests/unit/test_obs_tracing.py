"""Distributed tracing: context propagation, span records, tree merge
and Chrome export."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro import obs
from repro.obs import spans


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_timeline(None)
    yield
    obs.reset()
    obs.set_timeline(None)


def _sink():
    stream = io.StringIO()
    obs.set_timeline(obs.Timeline(stream))
    return stream


def _records(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestTraceContext:
    def test_child_keeps_trace_id_and_parents_correctly(self):
        root = obs.mint_context()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id
        assert len(child.span_id) == 16

    def test_mint_is_unique(self):
        a, b = obs.mint_context(), obs.mint_context()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_save_load_roundtrip(self, tmp_path):
        context = obs.mint_context()
        obs.save_context(tmp_path / "obs", context, job="j")
        loaded = obs.load_context(tmp_path / "obs")
        assert loaded == spans.TraceContext(context.trace_id,
                                              context.span_id)
        meta = spans.load_context_meta(tmp_path / "obs")
        assert meta["job"] == "j"
        assert meta["trace_version"] == spans.TRACE_VERSION

    def test_load_missing_returns_none(self, tmp_path):
        assert obs.load_context(tmp_path) is None

    def test_load_rejects_foreign_version(self, tmp_path):
        obs.save_context(tmp_path, obs.mint_context())
        path = tmp_path / spans.TRACE_FILE
        data = json.loads(path.read_text())
        data["trace_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="trace_version"):
            obs.load_context(tmp_path)


class TestSpanRecording:
    def test_span_is_noop_without_context(self):
        stream = _sink()
        with obs.span("work") as handle:
            assert handle is None
        assert stream.getvalue() == ""

    def test_span_emits_span_kind_with_ids(self):
        stream = _sink()
        context = obs.mint_context()
        obs.set_context(context)
        obs.set_process_name("p1")
        with obs.span("work", detail=7) as handle:
            assert handle.context.trace_id == context.trace_id
        (record,) = _records(stream)
        assert record["kind"] == "span"
        assert record["trace_id"] == context.trace_id
        assert record["parent_span_id"] == context.span_id
        assert record["name"] == "work"
        assert record["proc"] == "p1"
        assert record["status"] == "ok"
        assert record["detail"] == 7
        assert record["end_unix"] >= record["start_unix"]

    def test_nested_spans_parent_into_a_chain(self):
        stream = _sink()
        obs.set_context(obs.mint_context())
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = _records(stream)
        assert inner["name"] == "inner"
        assert inner["parent_span_id"] == outer["span_id"]

    def test_span_error_records_status_and_reraises(self):
        stream = _sink()
        obs.set_context(obs.mint_context())
        with pytest.raises(ValueError, match="boom"):
            with obs.span("work"):
                raise ValueError("boom")
        (record,) = _records(stream)
        assert record["status"] == "error"
        assert "ValueError" in record["error"]

    def test_annotate_lands_on_the_record(self):
        stream = _sink()
        obs.set_context(obs.mint_context())
        with obs.span("cell") as handle:
            handle.annotate(outcome="cached")
        (record,) = _records(stream)
        assert record["outcome"] == "cached"

    def test_threads_parent_under_their_own_chain(self):
        stream = _sink()
        obs.set_context(obs.mint_context())

        def worker(name):
            obs.set_process_name(name)
            with obs.span("worker"):
                with obs.span("cell"):
                    pass

        threads = [threading.Thread(target=worker, args=(f"w{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = _records(stream)
        workers = {r["span_id"]: r for r in records
                   if r["name"] == "worker"}
        cells = [r for r in records if r["name"] == "cell"]
        assert len(workers) == 2 and len(cells) == 2
        for cell in cells:
            # Each cell is parented to the worker span of its own thread.
            assert workers[cell["parent_span_id"]]["proc"] == cell["proc"]


class TestPhaseUpgrade:
    def test_phase_without_context_stays_phase_kind(self):
        stream = _sink()
        with obs.phase("expand"):
            pass
        (record,) = _records(stream)
        assert record["kind"] == "phase"
        assert record["name"] == "expand"

    def test_phase_with_context_becomes_span(self):
        stream = _sink()
        obs.set_context(obs.mint_context())
        with obs.phase("expand"):
            pass
        (record,) = _records(stream)
        assert record["kind"] == "span"
        assert record["name"] == "expand"
        assert "trace_id" in record and "span_id" in record

    def test_phase_error_still_reraises_as_span(self):
        stream = _sink()
        obs.set_context(obs.mint_context())
        with pytest.raises(RuntimeError):
            with obs.phase("execute"):
                raise RuntimeError("dead")
        (record,) = _records(stream)
        assert record["kind"] == "span"
        assert record["status"] == "error"


class TestTreeReconstruction:
    def _span(self, span_id, parent, name="s", proc="p", start=0.0,
              end=1.0, trace="t1", **fields):
        return {"kind": "span", "trace_id": trace, "span_id": span_id,
                "parent_span_id": parent, "name": name, "proc": proc,
                "status": "ok", "start_unix": start, "end_unix": end,
                "wall_seconds": end - start, "cpu_seconds": 0.0, **fields}

    def test_build_tree_parents_and_orders(self):
        records = [
            self._span("root", None, name="job", end=10.0),
            self._span("w", "root", name="worker", start=1.0, end=9.0),
            self._span("c2", "w", name="cell", start=5.0, end=6.0),
            self._span("c1", "w", name="cell", start=2.0, end=3.0),
        ]
        tree = spans.build_tree(records)
        assert tree.span_count == 4
        assert not tree.orphans
        (root,) = tree.roots
        assert root.name == "job"
        worker = root.children[0]
        assert [c.span_id for c in worker.children] == ["c1", "c2"]

    def test_orphans_are_surfaced_not_dropped(self):
        records = [self._span("lost", "missing-parent", name="cell")]
        tree = spans.build_tree(records)
        assert len(tree.orphans) == 1
        assert tree.orphans[0].orphaned
        assert tree.roots  # still visible as a root

    def test_dominant_trace_selected_and_explicit_id_respected(self):
        records = [self._span("a", None, trace="t1"),
                   self._span("b", None, trace="t2"),
                   self._span("c", "b", trace="t2")]
        assert spans.build_tree(records).trace_id == "t2"
        assert spans.build_tree(records, trace_id="t1").span_count == 1
        with pytest.raises(ValueError, match="not present"):
            spans.build_tree(records, trace_id="t9")

    def test_critical_path_follows_latest_finishers(self):
        records = [
            self._span("root", None, name="job", end=10.0),
            self._span("fast", "root", name="worker", start=1.0, end=2.0),
            self._span("slow", "root", name="worker", start=1.0, end=9.0),
            self._span("tail", "slow", name="cell", start=8.0, end=9.0),
        ]
        path = spans.build_tree(records).critical_path()
        assert [n.span_id for n in path] == ["root", "slow", "tail"]

    def test_load_trace_discovers_jobdir_and_mixes_files(self, tmp_path):
        obs_dir = tmp_path / "job" / "obs" / "w1"
        obs_dir.mkdir(parents=True)
        (obs_dir / "timeline.jsonl").write_text(
            json.dumps(self._span("w", "root", name="worker")) + "\n")
        extra = tmp_path / "coordinator.jsonl"
        extra.write_text(
            json.dumps(self._span("root", None, name="job")) + "\n")
        tree = spans.load_trace([tmp_path / "job", extra])
        assert tree.span_count == 2
        assert not tree.orphans

    def test_load_trace_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no span files"):
            spans.load_trace(tmp_path)

    def test_chrome_export_shape(self):
        records = [self._span("root", None, name="job", start=5.0,
                              end=6.0)]
        tree = spans.build_tree(records)
        events = spans.chrome_trace_events(tree)
        complete = [e for e in events if e["ph"] == "X"]
        (event,) = complete
        assert event["ts"] == 0.0
        assert event["dur"] == pytest.approx(1e6)
        assert event["args"]["span_id"] == "root"


class TestResetHygiene:
    def test_reset_clears_context_and_process_name(self):
        obs.set_context(obs.mint_context())
        obs.set_process_name("w9")
        obs.reset()
        assert obs.current_context() is None
        assert not obs.tracing_active()
        assert spans.process_name().startswith("proc-")
