"""Unit tests for the benchmark harness subsystem (benchmarks/harness.py)."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness_under_test", REPO_ROOT / "benchmarks" / "harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules, so the
    # module must be registered before execution.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def make_result(harness, name="dummy", events_per_sec=1000.0, **overrides):
    kwargs = dict(
        name=name,
        wall_time_s=1.0,
        events=int(events_per_sec),
        events_per_sec=events_per_sec,
        ops=10,
        ops_per_sec=10.0,
        peak_rss_kb=1024,
        calibration_mops=1.0,
        quick=True,
    )
    kwargs.update(overrides)
    return harness.BenchResult(**kwargs)


class TestBenchResult:
    def test_normalized_score_divides_by_calibration(self, harness):
        result = make_result(harness, events_per_sec=500.0, calibration_mops=2.0)
        assert result.normalized_score == pytest.approx(250.0)

    def test_as_dict_schema(self, harness):
        data = make_result(harness).as_dict()
        for key in (
            "schema_version", "name", "wall_time_s", "events",
            "events_per_sec", "ops", "ops_per_sec", "peak_rss_kb",
            "normalized_score", "quick", "python", "platform", "meta",
        ):
            assert key in data

    def test_write_emits_bench_json(self, harness, tmp_path):
        path = make_result(harness, name="abc").write(tmp_path)
        assert path.name == "BENCH_abc.json"
        assert json.loads(path.read_text())["name"] == "abc"


class TestBaselineCompare:
    def test_regression_detected_beyond_tolerance(self, harness):
        baseline = {"dummy": make_result(harness, events_per_sec=1000.0).as_dict()}
        current = [make_result(harness, events_per_sec=700.0)]
        comparisons = harness.compare_to_baseline(
            current, baseline, tolerance=0.25
        )
        assert len(comparisons) == 1
        assert comparisons[0].regressed

    def test_within_tolerance_passes(self, harness):
        baseline = {"dummy": make_result(harness, events_per_sec=1000.0).as_dict()}
        current = [make_result(harness, events_per_sec=800.0)]
        (comparison,) = harness.compare_to_baseline(
            current, baseline, tolerance=0.25
        )
        assert not comparison.regressed

    def test_improvement_passes(self, harness):
        baseline = {"dummy": make_result(harness, events_per_sec=1000.0).as_dict()}
        current = [make_result(harness, events_per_sec=2000.0)]
        (comparison,) = harness.compare_to_baseline(current, baseline)
        assert not comparison.regressed
        assert comparison.ratio == pytest.approx(2.0)

    def test_scenarios_missing_from_baseline_are_skipped(self, harness):
        current = [make_result(harness, name="brand_new")]
        assert harness.compare_to_baseline(current, {}) == []

    def test_mode_mismatch_is_skipped(self, harness):
        # A quick run must not be gated against a full-size baseline entry
        # (different problem sizes), and vice versa.
        full_baseline = {
            "dummy": make_result(harness, events_per_sec=1000.0,
                                 quick=False).as_dict()
        }
        quick_run = [make_result(harness, events_per_sec=100.0, quick=True)]
        assert harness.compare_to_baseline(quick_run, full_baseline) == []
        full_run = [make_result(harness, events_per_sec=900.0, quick=False)]
        (comparison,) = harness.compare_to_baseline(full_run, full_baseline)
        assert not comparison.regressed

    def test_wall_time_fallback_for_experiment_scenarios(self, harness):
        baseline = {
            "exp": make_result(
                harness, name="exp", events=0, events_per_sec=0.0,
                wall_time_s=2.0,
            ).as_dict()
        }
        slower = [
            make_result(harness, name="exp", events=0, events_per_sec=0.0,
                        wall_time_s=4.0)
        ]
        (comparison,) = harness.compare_to_baseline(
            slower, baseline, tolerance=0.25
        )
        assert comparison.regressed

    def test_wall_time_fallback_is_calibration_normalized(self, harness):
        """Equal wall time on a machine half as fast is an improvement,
        not a regression."""
        baseline = {
            "exp": make_result(
                harness, name="exp", events=0, events_per_sec=0.0,
                wall_time_s=2.0, calibration_mops=2.0,
            ).as_dict()
        }
        current = [
            make_result(harness, name="exp", events=0, events_per_sec=0.0,
                        wall_time_s=2.0, calibration_mops=1.0)
        ]
        (comparison,) = harness.compare_to_baseline(
            current, baseline, tolerance=0.25
        )
        assert not comparison.regressed
        assert comparison.ratio == pytest.approx(2.0)

    def test_save_and_load_roundtrip(self, harness, tmp_path):
        path = tmp_path / "baseline.json"
        harness.save_baseline(path, [make_result(harness, name="x")])
        loaded = harness.load_baseline(path)
        assert "x" in loaded
        assert loaded["x"]["events_per_sec"] == 1000.0

    def test_saving_a_subset_keeps_the_other_entries(self, harness, tmp_path):
        path = tmp_path / "baseline.json"
        harness.save_baseline(path, [make_result(harness, name="x"),
                                     make_result(harness, name="y")])
        harness.save_baseline(
            path, [make_result(harness, name="y", events_per_sec=5.0)])
        loaded = harness.load_baseline(path)
        assert loaded["x"]["events_per_sec"] == 1000.0
        assert loaded["y"]["events_per_sec"] == 5.0


class TestRunBenchmark:
    def test_every_scenario_has_a_baseline_entry_and_no_e2e_twin(self, harness):
        # One benchmark per load: what benchmarks/e2e runs with correctness
        # checks is not registered here, and what is registered is gated
        # (compare_to_baseline silently skips a scenario without an entry).
        assert set(harness.BENCH_SCENARIOS) == {
            "quiescence_vectorized", "obs_overhead", "event_queue_churn",
            "campaign_store", "campaign_merge"}
        baseline = harness.load_baseline(harness.DEFAULT_BASELINE)
        assert set(baseline) == set(harness.BENCH_SCENARIOS)
        assert all(entry["normalized_score"] > 0 for entry in baseline.values())

    def test_vectorized_quiescence_has_a_full_size_baseline_entry(
            self, harness):
        # The ROADMAP perf target is stated on the *full* load (n=40): the
        # committed baseline must gate full runs, not the CI quick size.
        baseline = harness.load_baseline(harness.DEFAULT_BASELINE)
        assert "quiescence_vectorized" in baseline
        entry = baseline["quiescence_vectorized"]
        assert entry["quick"] is False
        assert entry["events_per_sec"] >= 200_000
        assert entry["peak_rss_kb"] < 200 * 1024

    def test_run_benchmark_produces_normalized_result(self, harness):
        harness.BENCH_SCENARIOS["_test_dummy"] = harness.BenchSpec(
            name="_test_dummy",
            description="test stub",
            run=lambda quick: (0.5, 100, 10, {"quick": quick}),
        )
        try:
            result = harness.run_benchmark(
                "_test_dummy", quick=True, calibration_mops=2.0
            )
        finally:
            del harness.BENCH_SCENARIOS["_test_dummy"]
        assert result.events_per_sec == pytest.approx(200.0)
        assert result.normalized_score == pytest.approx(100.0)
        assert result.meta["quick"] is True
        assert result.meta["rss_delta_kb"] >= 0
        assert result.peak_rss_kb > 0

    def test_run_benchmark_records_the_collectors_share(self, harness):
        """``meta.gc`` comes from one more pass with obs on, read off the obs
        layer's own counters; obs is left off afterwards."""
        import gc

        from repro import obs

        passes = []

        def run(quick):
            passes.append(obs.enabled())
            for _ in range(2000):
                cycle: list = []
                cycle.append(cycle)
            return 0.5, 100, 10, {}

        harness.BENCH_SCENARIOS["_test_gc"] = harness.BenchSpec(
            name="_test_gc", description="test stub", run=run)
        callbacks = len(gc.callbacks)
        try:
            result = harness.run_benchmark("_test_gc", quick=True, repeat=2,
                                           calibration_mops=2.0)
        finally:
            del harness.BENCH_SCENARIOS["_test_gc"]
        assert passes == [False, False, True]
        assert set(result.meta["gc"]) == {"collections", "seconds"}
        assert set(result.meta["gc"]["collections"]) == {"0", "1", "2"}
        assert result.meta["gc"]["collections"]["0"] >= 1
        assert result.meta["gc"]["seconds"]["0"] > 0.0
        assert json.loads(json.dumps(result.as_dict()))["meta"]["gc"] \
            == result.meta["gc"]
        assert not obs.enabled() and len(gc.callbacks) == callbacks


class TestBenchScript:
    def test_bench_script_lists_scenarios(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "bench.py"), "--list"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "quiescence_vectorized" in proc.stdout

    def test_e2e_snapshots_carry_every_end_to_end_metric(self):
        spec = importlib.util.spec_from_file_location(
            "bench_script_under_test", REPO_ROOT / "scripts" / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        metrics = {entry["name"]: {"value": 1.0, "unit": entry["unit"],
                                   "samples": [1.0]}
                   for entry in declared["end_to_end"]}
        collected = {"seed": 1234, "seconds": 3, "workloads": {
            "campaign_leased": {"metrics": metrics, "attempted": 9,
                                "failed": 0},
            "flood_n14": {"metrics": metrics, "attempted": 9, "failed": 1}}}
        documents = bench.e2e_documents(collected)
        assert sorted(documents) == ["campaign_leased", "flood_n14"]
        leased = documents["campaign_leased"]
        assert leased["name"] == "e2e_campaign_leased" and leased["correct"]
        assert set(leased["metrics"]) == {"setup_s", "wall_s", "ops_per_s",
                                          "peak_rss_mb"}
        assert not documents["flood_n14"]["correct"]

    def test_e2e_mode_refuses_an_unknown_workload(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "bench.py"), "--e2e",
             "--scenarios", "no_such_workload", "--output-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "no_such_workload" in proc.stderr
        assert list(tmp_path.iterdir()) == []
