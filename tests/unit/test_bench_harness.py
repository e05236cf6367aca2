"""Tests for ``scripts/bench.py``: the loads no e2e workload covers, run at a
fixed size in their own interpreters, and the ``BENCH_*.json`` documents it
writes for them and for the end-to-end benchmark."""

from __future__ import annotations

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaigns.store import RESULT_COLUMNS
from repro.network import Network
from repro.simulation.tracing import TraceRecorder

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH = REPO_ROOT / "scripts" / "bench.py"
LOADS = {"quiescence_vectorized", "fd_all_processes", "flood_reference",
         "flood_full_trace", "quiescence_reference", "obs_overhead",
         "event_queue_churn", "campaign_store", "campaign_merge"}
#: Top-level keys of every document, the loads' and the e2e workloads'.
DOCUMENT_KEYS = {"name", "correct", "attempted", "failed", "metrics",
                 "python", "platform"}
COMMITTED = sorted(REPO_ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script_under_test",
                                                  BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH), *args],
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Documents of two invocations: ``--quick`` queue churn then store puts
    (churn's peak RSS is the higher), and store puts alone at the full
    sample count."""
    documents = {}
    for mode, args in (("quick", ["--quick", "--scenarios",
                                  "event_queue_churn,campaign_store"]),
                       ("full", ["--scenarios", "campaign_store"])):
        out = tmp_path_factory.mktemp(mode)
        proc = run_bench(*args, "--output-dir", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        documents[mode] = {
            path.stem[len("BENCH_"):]: json.loads(path.read_text())
            for path in out.glob("BENCH_*.json")}
    return documents


def e2e_collected(declared: dict) -> dict:
    metrics = {entry["name"]: {"value": 1.0, "unit": entry["unit"],
                               "samples": [1.0]}
               for entry in declared["end_to_end"]}
    return {"seed": 1234, "seconds": 3, "workloads": {
        "campaign_leased": {"metrics": metrics, "attempted": 9, "failed": 0},
        "flood_n14": {"metrics": metrics, "attempted": 9, "failed": 1}}}


def assert_document(doc: dict) -> None:
    """The one schema: shared keys plus the load's ``meta`` or the e2e
    workload's run context; each metric a median of its samples."""
    extra = set(doc) - DOCUMENT_KEYS
    assert DOCUMENT_KEYS <= set(doc)
    assert extra in ({"meta"}, {"workload", "seed", "seconds"}), extra
    assert doc["correct"] is (doc["failed"] == 0)
    assert {"wall_s", "ops_per_s", "peak_rss_mb"} <= set(doc["metrics"])
    for metric in doc["metrics"].values():
        assert set(metric) == {"value", "unit", "samples"}
        # e2e's run.py reports peak_rss_mb as one value with no samples.
        if metric["samples"]:
            assert metric["value"] == statistics.median(metric["samples"])


class TestDocuments:
    def test_committed_documents_are_the_loads_and_the_e2e_workloads(self):
        names = {path.stem[len("BENCH_"):] for path in COMMITTED}
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        workloads = {entry["name"] for entry in declared["workloads"]}
        assert names == LOADS | {f"e2e_{w}" for w in workloads}

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda path: path.name)
    def test_committed_document_has_the_schema(self, path):
        doc = json.loads(path.read_text())
        assert_document(doc)
        assert doc["correct"], path.name
        assert doc["name"] == path.stem[len("BENCH_"):]

    def test_fresh_documents_share_the_schema(self, bench, recorded):
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        fresh = [*recorded["quick"].values(), *recorded["full"].values(),
                 *bench.e2e_documents(e2e_collected(declared)).values()]
        for doc in fresh:
            assert_document(doc)

    def test_write_document_writes_the_file_and_flags_wrong_output(
            self, bench, tmp_path, capsys):
        doc = bench.document(
            "_test_written", correct=False, attempted=1, failed=1,
            metrics={"wall_s": {"value": 0.5, "unit": "s", "samples": [0.5]}},
            meta={"cells": 3})
        bench.write_document(doc, tmp_path)
        path = tmp_path / "BENCH__test_written.json"
        assert path.read_text() == json.dumps(doc, indent=2,
                                              sort_keys=True) + "\n"
        assert json.loads(path.read_text()) == doc
        printed = capsys.readouterr().out
        assert "wall_s=0.5 s" in printed and "INCORRECT" in printed
        assert path.name in printed

    def test_each_load_reads_its_own_peak_rss(self, recorded):
        # ru_maxrss is a process-lifetime high-water mark: run in the
        # churn's process, the store load would read the churn's peak.
        quick, full = recorded["quick"], recorded["full"]
        churn = quick["event_queue_churn"]["metrics"]["peak_rss_mb"]["value"]
        store = quick["campaign_store"]["metrics"]["peak_rss_mb"]["value"]
        alone = full["campaign_store"]["metrics"]["peak_rss_mb"]["value"]
        assert churn > alone + 5.0
        assert store == pytest.approx(alone, abs=5.0)

    def test_quick_changes_the_sample_count_not_the_problem(self, bench,
                                                            recorded):
        quick = recorded["quick"]["campaign_store"]
        full = recorded["full"]["campaign_store"]
        assert quick["attempted"] == bench.QUICK_SAMPLES
        assert full["attempted"] == bench.FULL_SAMPLES
        assert len(full["metrics"]["wall_s"]["samples"]) == bench.FULL_SAMPLES
        problem = {key: value for key, value in quick["meta"].items()
                   if key != "gc"}
        assert problem["cells"] == 400
        assert problem == {key: value for key, value in full["meta"].items()
                           if key != "gc"}

    def test_e2e_snapshots_carry_every_end_to_end_metric(self, bench):
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        documents = bench.e2e_documents(e2e_collected(declared))
        assert sorted(documents) == ["campaign_leased", "flood_n14"]
        leased = documents["campaign_leased"]
        assert leased["name"] == "e2e_campaign_leased" and leased["correct"]
        assert set(leased["metrics"]) == {"setup_s", "wall_s", "ops_per_s",
                                          "peak_rss_mb"}
        assert not documents["flood_n14"]["correct"]


class TestLoads:
    def test_wrong_output_is_recorded_and_fails_the_run(self, bench,
                                                        monkeypatch, tmp_path):
        def load():
            return {"wall_s": 0.5, "ops_per_s": 20.0}, False, {}

        monkeypatch.setitem(bench.LOADS, "_test_wrong", load)
        monkeypatch.setattr(bench, "run_load", bench.measure)
        monkeypatch.setattr(bench, "observed_gc", lambda load: {})
        assert bench.main(["--quick", "--scenarios", "_test_wrong",
                           "--output-dir", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "BENCH__test_wrong.json").read_text())
        assert (doc["correct"], doc["attempted"], doc["failed"]) \
            == (False, bench.QUICK_SAMPLES, bench.QUICK_SAMPLES)
        assert doc["metrics"]["ops_per_s"] == {
            "value": 20.0, "unit": "1/s",
            "samples": [20.0] * bench.QUICK_SAMPLES}

    def test_measure_records_the_collectors_share(self, bench, monkeypatch):
        """``meta.gc`` comes from one more pass with obs on, read off the obs
        layer's own counters; obs is left off afterwards."""
        import gc

        from repro import obs

        passes = []

        def load():
            passes.append(obs.enabled())
            for _ in range(2000):
                cycle: list = []
                cycle.append(cycle)
            return {"wall_s": 0.5, "ops_per_s": 200.0}, True, {}

        monkeypatch.setitem(bench.LOADS, "_test_gc", load)
        callbacks = len(gc.callbacks)
        doc = bench.measure("_test_gc", 2)
        assert passes == [False, False, True]
        assert set(doc["meta"]["gc"]) == {"collections", "seconds"}
        assert set(doc["meta"]["gc"]["collections"]) == {"0", "1", "2"}
        assert doc["meta"]["gc"]["collections"]["0"] >= 1
        assert doc["meta"]["gc"]["seconds"]["0"] > 0.0
        assert json.loads(json.dumps(doc)) == doc
        assert not obs.enabled() and len(gc.callbacks) == callbacks

    def test_measure_counts_every_pass_with_wrong_output(self, bench,
                                                         monkeypatch):
        verdicts = iter([True, False, True, True])  # three timed, one gc

        def load():
            return {"wall_s": 0.5, "ops_per_s": 20.0}, next(verdicts), {}

        monkeypatch.setitem(bench.LOADS, "_test_flaky", load)
        doc = bench.measure("_test_flaky", 3)
        assert (doc["correct"], doc["attempted"], doc["failed"]) \
            == (False, 3, 1)
        assert len(doc["metrics"]["wall_s"]["samples"]) == 3

    def test_quiescence_load_refuses_the_per_event_loop(self, bench,
                                                        monkeypatch):
        scenario = bench._quiescence_scenario
        monkeypatch.setattr(bench, "_quiescence_scenario",
                            lambda n, engine: scenario(6, engine))
        assert bench.quiescence_vectorized()[1]
        # A FULL trace sends the vectorized engine down the per-event loop.
        monkeypatch.setattr(
            bench, "_quiescence_scenario",
            lambda n, engine: scenario(6, engine).with_(trace_enabled=True))
        assert not bench.quiescence_vectorized()[1]

    def test_quiescence_load_refuses_a_run_cut_at_the_horizon(self, bench,
                                                              monkeypatch):
        scenario = bench._quiescence_scenario
        monkeypatch.setattr(
            bench, "_quiescence_scenario",
            lambda n, engine: scenario(6, engine).with_(max_time=1.0))
        assert not bench.quiescence_vectorized()[1]

    def test_fd_load_refuses_engines_that_differ(self, bench, monkeypatch):
        scenario = bench._fd_all_processes_scenario
        monkeypatch.setattr(bench, "_fd_all_processes_scenario",
                            lambda n: scenario(6))
        values, correct, meta = bench.fd_all_processes()
        assert correct and meta["n_processes"] == 6
        assert values["wall_s"] == pytest.approx(
            values["reference_s"] + values["vectorized_s"])
        # The vectorized run simulates one process more than the reference.
        run_fingerprint = bench.run_fingerprint
        monkeypatch.setattr(bench, "run_fingerprint", lambda s, engine:
                            run_fingerprint(s.with_(n_processes=7)
                                            if engine == "vectorized" else s,
                                            engine))
        assert not bench.fd_all_processes()[1]

    def test_flood_load_refuses_engines_that_differ(self, bench, monkeypatch):
        scenario = bench._flood_scenario
        monkeypatch.setattr(bench, "_flood_scenario", lambda n: scenario(6))
        values, correct, meta = bench.flood_reference()
        assert correct and meta["n_processes"] == 6
        assert values["ops_per_s"] == meta["events"] / values["wall_s"]
        # Channel counts left unsettled read as zeros on the reference run.
        with monkeypatch.context() as patch:
            patch.setattr(Network, "settle", lambda self: None)
            assert not bench.flood_reference()[1]
        # The vectorized run simulates another seed.
        build_engine = bench.build_engine
        monkeypatch.setattr(bench, "build_engine", lambda s: build_engine(
            s.with_(seed=5) if s.engine == "vectorized" else s))
        assert not bench.flood_reference()[1]

    def test_full_trace_load_refuses_a_trace_that_loses_a_copy(
            self, bench, monkeypatch):
        scenario = bench._flood_scenario
        monkeypatch.setattr(bench, "_flood_scenario", lambda n: scenario(6))
        values, correct, meta = bench.flood_full_trace()
        assert correct and meta["n_processes"] == 6
        assert meta["send"] > meta["drop"] > 0 and meta["channel_deliver"] > 0
        assert values["ops_per_s"] == meta["events"] / values["wall_s"]
        # Each broadcast's trace row is one copy short of its metrics.
        record = TraceRecorder.record_broadcast
        monkeypatch.setattr(
            TraceRecorder, "record_broadcast",
            lambda self, time, process, kind, payload, times:
                record(self, time, process, kind, payload, times[1:]))
        assert not bench.flood_full_trace()[1]

    def test_quiescence_reference_load_refuses_engines_that_differ(
            self, bench, monkeypatch):
        scenario = bench._quiescence_e2e_scenario
        monkeypatch.setattr(bench, "_quiescence_e2e_scenario",
                            lambda n: scenario(6))
        values, correct, meta = bench.quiescence_reference()
        assert correct and meta["n_processes"] == 6
        assert values["ops_per_s"] == meta["events"] / values["wall_s"]
        # A run cut at the horizon is not the load.
        with monkeypatch.context() as patch:
            patch.setattr(bench, "_quiescence_e2e_scenario",
                          lambda n: scenario(6).with_(max_time=2.0))
            assert not bench.quiescence_reference()[1]
        # The vectorized run simulates another seed.
        build_engine = bench.build_engine
        monkeypatch.setattr(bench, "build_engine", lambda s: build_engine(
            s.with_(seed=5) if s.engine == "vectorized" else s))
        assert not bench.quiescence_reference()[1]

    def test_obs_load_does_the_same_work_with_obs_on_and_off(self, bench,
                                                             monkeypatch):
        from repro import obs

        scenario = bench._quiescence_scenario
        monkeypatch.setattr(bench, "_quiescence_scenario",
                            lambda n, engine: scenario(6, engine))
        values, correct, meta = bench.obs_overhead()
        assert correct and meta["n_processes"] == 6
        assert set(values) == {"wall_s", "ops_per_s", "overhead_pct"}
        assert not obs.enabled()

    def test_obs_load_refuses_runs_that_differ(self, bench, monkeypatch):
        from repro import obs

        scenario = bench._quiescence_scenario
        run_engine = bench._run_engine
        monkeypatch.setattr(bench, "_quiescence_scenario",
                            lambda n, engine: scenario(6, engine))
        # The obs-on run simulates one process more than the obs-off run.
        monkeypatch.setattr(bench, "_run_engine", lambda s: run_engine(
            s.with_(n_processes=7) if obs.enabled() else s))
        assert not bench.obs_overhead()[1]

    def test_churn_load_refuses_a_queue_that_loses_an_event(self, bench,
                                                            monkeypatch):
        class LosingQueue(bench.EventQueue):
            def pop(self):
                event = super().pop()
                if event[1] == 1000:
                    super().pop()  # popped and never handed out
                return event

        monkeypatch.setattr(bench, "EventQueue", LosingQueue)
        values, correct, meta = bench.event_queue_churn()
        assert not correct
        assert meta["popped"] == 500_000

    def test_store_load_refuses_a_missed_cell(self, bench, monkeypatch):
        seed_at = [name for name, *_ in RESULT_COLUMNS].index("seed")

        class ForgetfulStore(bench.ResultStore):
            def put_many(self, cells, **kwargs):
                return super().put_many(
                    [cell for cell in cells if cell.row[seed_at] != 7], **kwargs)

        monkeypatch.setattr(bench, "ResultStore", ForgetfulStore)
        values, correct, meta = bench.campaign_store()
        assert not correct
        assert (meta["misses"], meta["hit_rows"], meta["queried"]) \
            == (1, 399, 399)

    def test_merge_load_refuses_a_lost_shard(self, bench, monkeypatch):
        merge_stores = bench.merge_stores
        monkeypatch.setattr(bench, "merge_stores", lambda dest, sources:
                            merge_stores(dest, sources[:-1]))
        values, correct, meta = bench.campaign_merge()
        assert not correct
        assert meta["copied"] < meta["cells"] == 6000


class TestCommandLine:
    def test_list_names_the_loads_and_no_e2e_workload(self):
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        proc = run_bench("--list")
        assert proc.returncode == 0, proc.stderr
        listed = {line.split()[0] for line in proc.stdout.splitlines()}
        assert listed == LOADS
        assert not listed & {entry["name"] for entry in declared["workloads"]}

    def test_e2e_mode_refuses_an_unknown_workload(self, tmp_path):
        proc = run_bench("--e2e", "--scenarios", "no_such_workload",
                         "--output-dir", str(tmp_path))
        assert proc.returncode != 0
        assert "no_such_workload" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_an_unknown_load_is_refused_before_anything_runs(
            self, bench, monkeypatch, tmp_path):
        monkeypatch.setattr(bench, "run_load", pytest.fail)
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--scenarios", "campaign_store,no_such_load",
                        "--output-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_a_load_whose_interpreter_fails_stops_the_run(self, bench):
        with pytest.raises(SystemExit, match="no_such_load"):
            bench.run_load("no_such_load", 1)


FAKE_RUN = """\
import json, sys
argv = sys.argv[1:]
with open(sys.argv[0] + ".argv", "w") as f:
    json.dump(argv, f)
if {write}:
    metrics = {{key: {{"value": 1.0, "unit": "s", "samples": [1.0]}}
               for key in ("wall_s", "ops_per_s", "peak_rss_mb")}}
    with open(argv[argv.index("--out") + 1], "w") as f:
        json.dump({{"seed": 1234, "seconds": 3, "workloads": {{"flood_n14": {{
            "metrics": metrics, "attempted": 1, "failed": 0}}}}}}, f)
sys.exit({code})
"""


class TestEndToEndSnapshots:
    def fake_run(self, bench, monkeypatch, tmp_path, *, write, code):
        script = tmp_path / "run.py"
        script.write_text(FAKE_RUN.format(write=write, code=code))
        monkeypatch.setattr(bench, "E2E_RUN", script)
        return Path(f"{script}.argv")

    def test_run_results_become_snapshots(self, bench, monkeypatch,
                                          tmp_path):
        argv = self.fake_run(bench, monkeypatch, tmp_path, write=True, code=0)
        out = tmp_path / "out"
        out.mkdir()
        assert bench.run_e2e(["flood_n14"], True, out) == 0
        called = json.loads(argv.read_text())
        assert called[:4] == ["--workloads", "flood_n14", "--seconds",
                              str(bench.E2E_QUICK_SECONDS)]
        doc = json.loads((out / "BENCH_e2e_flood_n14.json").read_text())
        assert_document(doc)
        assert (doc["workload"], doc["seed"], doc["seconds"]) \
            == ("flood_n14", 1234, 3)

    @pytest.mark.parametrize("code,expected", [(0, 1), (3, 3)])
    def test_a_run_that_writes_no_results_fails(self, bench, monkeypatch,
                                                tmp_path, code, expected):
        self.fake_run(bench, monkeypatch, tmp_path, write=False, code=code)
        out = tmp_path / "out"
        out.mkdir()
        assert bench.run_e2e([], False, out) == expected
        assert list(out.iterdir()) == []


class TestPairs:
    """``scripts/pairs.py`` with its runner stubbed: which checkout runs
    when, and what the table says about the runs."""

    @pytest.fixture
    def pairs(self):
        spec = importlib.util.spec_from_file_location(
            "pairs_script_under_test", REPO_ROOT / "scripts" / "pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture
    def trees(self, tmp_path):
        trees = []
        for side in ("parent", "change"):
            tree = tmp_path / side
            (tree / "src" / "__pycache__").mkdir(parents=True)
            (tree / "src" / "__pycache__" / "x.pyc").write_bytes(b"")
            (tree / "BENCHMARK.json").write_text(
                (REPO_ROOT / "BENCHMARK.json").read_text())
            trees.append(tree)
        return trees

    def stub(self, pairs, monkeypatch, trees, *, change_correct=True,
             factor=2.0):
        """Parent runs read 10, 11, 12, ... ops/s; change runs *factor*
        times that."""
        calls = []

        def run_once(tree, workload, seed, seconds):
            assert not list(tree.rglob("__pycache__"))
            side = tree.name
            calls.append((side, workload, seed, seconds))
            count = sum(call[0] == side for call in calls)
            value = (9.0 + count) * (factor if side == "change" else 1)
            metrics = {"setup_s": value, "wall_s": 1 / value,
                       "ops_per_s": value, "peak_rss_mb": 50.0}
            return {"correct": change_correct or side == "parent",
                    "metrics": {name: {"value": v, "unit": "u"}
                                for name, v in metrics.items()}}

        monkeypatch.setattr(pairs, "run_once", run_once)
        return calls

    def test_sides_alternate_and_the_table_reads_the_runs(
            self, pairs, monkeypatch, trees, capsys):
        calls = self.stub(pairs, monkeypatch, trees)
        # The change's setup_s doubles: past its 0.25 bound.
        assert pairs.main([str(trees[0]), str(trees[1]), "--workload",
                           "flood_n14", "--pairs", "4", "--seed", "7",
                           "--seconds", "2"]) == 1
        assert [call[0] for call in calls] == [
            "parent", "change", "change", "parent"] * 2
        assert {call[1:] for call in calls} == {("flood_n14", 7, 2)}
        out = capsys.readouterr().out.splitlines()
        rows = {line.split(" | ")[0].strip("| "): line.split(" | ")[1:]
                for line in out
                if line.startswith("| ") and "metric" not in line}
        assert set(rows) == {"setup_s", "wall_s", "ops_per_s",
                             "peak_rss_mb"}
        # Parent 10..13 (median 11.5, IQR 2.5 by exclusive quartiles),
        # change 20..26.
        assert rows["ops_per_s"] == ["11.5", "23", "2.000", "4/4",
                                     "2.5", "0.25", "ok |"]
        assert rows["wall_s"][2:4] == ["0.500", "4/4"]
        assert rows["setup_s"][3] == "0/4"
        assert rows["setup_s"][5:] == ["0.25", "PAST |"]
        assert rows["peak_rss_mb"][2:4] == ["1.000", "0/4"]
        assert rows["peak_rss_mb"][5:] == ["0.1", "ok |"]
        assert out[-1] == "past bound: flood_n14 setup_s"

    @pytest.mark.parametrize("factor,past", [
        (1.1, None),  # setup_s 10% worse, inside its bound
        (0.5, "past bound: flood_n14 wall_s, flood_n14 ops_per_s"),
    ])
    def test_a_metric_past_its_bound_is_named(self, pairs, monkeypatch,
                                              trees, capsys, factor, past):
        self.stub(pairs, monkeypatch, trees, factor=factor)
        assert pairs.main([str(trees[0]), str(trees[1]), "--workload",
                           "flood_n14", "--pairs", "2"]) == (past is not None)
        out = capsys.readouterr().out
        assert ("past bound:" in out) == (past is not None)
        if past is not None:
            assert out.splitlines()[-1] == past

    def test_an_incorrect_run_fails_the_comparison(self, pairs, monkeypatch,
                                                   trees, capsys):
        self.stub(pairs, monkeypatch, trees, change_correct=False)
        assert pairs.main([str(trees[0]), str(trees[1]), "--workload",
                           "flood_n14", "--pairs", "1"]) == 1
        assert "incorrect output: 1 run(s) (change)" in capsys.readouterr().out

    def test_several_workloads_get_one_table_each(self, pairs, monkeypatch,
                                                  trees, capsys):
        calls = self.stub(pairs, monkeypatch, trees)
        assert pairs.main([str(trees[0]), str(trees[1]), "--workload",
                           "flood_n14,explore_walk", "--pairs", "2"]) == 1
        # Each round makes one pair of every workload, sides alternating
        # by round.
        assert [call[:2] for call in calls] == [
            ("parent", "flood_n14"), ("change", "flood_n14"),
            ("parent", "explore_walk"), ("change", "explore_walk"),
            ("change", "flood_n14"), ("parent", "flood_n14"),
            ("change", "explore_walk"), ("parent", "explore_walk")]
        out = capsys.readouterr().out.splitlines()
        headers = [line for line in out if "pairs" in line]
        assert headers == ["flood_n14, seed 1234, --seconds 18, 2 pairs",
                           "explore_walk, seed 1234, --seconds 18, 2 pairs"]
        ops_rows = [line for line in out if line.startswith("| ops_per_s")]
        # Parent 10, 12 for flood_n14 and 11, 13 for explore_walk; change
        # twice each.
        assert [row.split(" | ")[1:3] for row in ops_rows] == [
            ["11", "22"], ["12", "24"]]
        assert out[-1] == ("past bound: flood_n14 setup_s, "
                           "explore_walk setup_s")

    def test_an_incorrect_run_of_any_workload_fails(self, pairs, monkeypatch,
                                                    trees, capsys):
        self.stub(pairs, monkeypatch, trees, change_correct=False)
        assert pairs.main([str(trees[0]), str(trees[1]), "--workload",
                           "flood_n14,explore_walk", "--pairs", "1"]) == 1
        out = capsys.readouterr().out
        assert out.count("| ops_per_s") == 2
        assert "incorrect output: 2 run(s) (change)" in out


class TestEngineShapes:
    """``scripts/engine_shapes.py``: one real run of a shape, then the
    alternation and the table with the runner stubbed."""

    @pytest.fixture
    def shapes(self):
        spec = importlib.util.spec_from_file_location(
            "engine_shapes_under_test",
            REPO_ROOT / "scripts" / "engine_shapes.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_a_shape_runs_from_the_given_checkout(self, shapes):
        run = shapes.run_once(REPO_ROOT, "flood_fixed")
        assert run["seconds"] > 0 and run["events"] > 1000
        assert run["final_time"] <= 6.0

    def test_sides_alternate_and_a_different_run_fails(self, shapes,
                                                       monkeypatch, capsys):
        calls = []

        def run_once(tree, shape):
            calls.append((tree.name, shape))
            count = sum(call == (tree.name, shape) for call in calls)
            seconds = count * (1.0 if tree.name == "parent" else 0.5)
            events = 7 if shape == "flood_fixed" and tree.name == "change" \
                else 5
            return {"seconds": seconds, "events": events, "final_time": 6.0}

        monkeypatch.setattr(shapes, "run_once", run_once)
        assert shapes.main(["parent", "change", "--rounds", "2",
                            "--shapes", "flood,flood_fixed"]) == 1
        assert calls == [("parent", "flood"), ("change", "flood"),
                         ("parent", "flood_fixed"), ("change", "flood_fixed"),
                         ("change", "flood"), ("parent", "flood"),
                         ("change", "flood_fixed"), ("parent", "flood_fixed")]
        out = capsys.readouterr().out
        assert "| flood | 1.000 / 1.500 | 0.500 / 0.750 | 0.500 | 2/2 |" in out
        assert out.splitlines()[-1] == "different runs on: flood_fixed"
