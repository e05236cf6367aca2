"""The workloads at tiny sizes, the metric names, and the command line."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans

TINY = {
    "quiescence_n24": {"n": 6, "burst": 2},
    "flood_n14": {"n": 5, "horizon": 4.0},
    "campaign_grid": {"sizes": (5,), "seeds": 1},
    "campaign_leased": {"sizes": (3,), "seeds": 4},
    "explore_walk": {"budget": 10},
}
SPEC = run.load_spec()


def _tiny(name, *, seed=5, trace=False, golden=None):
    return run.run_workload(name, seed=seed, seconds=0, trace=trace,
                            sizes=TINY[name], golden=golden)


def test_workload_names_match_benchmark_json():
    _spans, workloads = run.import_program()
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert set(TINY) == set(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_reports_exactly_the_named_metrics(name):
    plain = _tiny(name)
    assert plain.correct, plain.failed_checks
    assert list(plain.metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in plain.metrics.values())
    assert len(plain.metrics["wall_s"]["samples"]) >= run.MIN_PASSES

    traced = _tiny(name, trace=True)
    assert traced.correct, traced.failed_checks
    assert list(traced.metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert 0.5 < traced.metrics["bench.ledger_coverage"]["value"] <= 1.0
    # Simulated statistics do not depend on tracing, and the wrappers are
    # gone once the run returns.
    assert traced.stats == plain.stats
    assert traced.spans[0][0] == spans.ROOT_SPAN
    assert not hasattr(_spans_engine_run(), "__wrapped__")

    line = json.loads(plain.result_line())
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert all(sorted(entry) == ["unit", "value"]
               for entry in line["metrics"].values())


def _spans_engine_run():
    from repro.simulation.engine import SimulationEngine
    return SimulationEngine.__dict__["run"]


@pytest.mark.parametrize("name", list(TINY))
def test_counts_repeat_for_a_seed_and_move_with_it(name):
    first, again, other = (_tiny(name, seed=5, trace=True),
                           _tiny(name, seed=5, trace=True),
                           _tiny(name, seed=6, trace=True))
    assert first.stats == again.stats
    assert first.traced_stats == again.traced_stats
    assert (first.stats, first.traced_stats) != (other.stats,
                                                 other.traced_stats)
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert [first.metrics[key]["value"] for key in exact] == \
        [again.metrics[key]["value"] for key in exact]


def test_layers_on_and_off_the_path():
    grid = _tiny("campaign_grid", trace=True).metrics
    leased = _tiny("campaign_leased", trace=True).metrics
    flood = _tiny("flood_n14", trace=True).metrics
    assert grid["store.cells_per_put"]["value"] > 1
    assert leased["store.cells_per_put"]["value"] == 1
    assert grid["leases.txn_calls"]["value"] == 0
    assert leased["leases.txn_calls"]["value"] > 0
    assert leased["merge.copied"]["value"] == 8
    # FULL-trace campaign cells never reach the batched path; the engine
    # workloads always do.
    assert grid["vectorized.events"]["value"] > 0
    assert grid["vectorized.batched_share"]["value"] == 0
    assert flood["vectorized.batched_share"]["value"] == 1
    assert flood["store.put_calls"]["value"] == 0


def test_golden_mismatch_fails_the_pass():
    honest = _tiny("flood_n14", trace=True)
    golden = {"seed": 5, "workloads": {"flood_n14": {
        "stats": honest.stats, "traced": honest.traced_stats}}}
    assert _tiny("flood_n14", trace=True, golden=golden).correct
    golden["workloads"]["flood_n14"]["stats"]["sends"] += 1
    tampered = _tiny("flood_n14", golden=golden)
    assert not tampered.correct
    assert tampered.failed_checks == ["golden.stats"]
    # Another seed is not pinned: parity and property checks only.
    assert _tiny("flood_n14", seed=6, golden=golden).correct


def test_golden_file_pins_every_workload():
    golden = run.load_golden()
    assert golden["seed"] == run.GOLDEN_SEED
    assert set(golden["workloads"]) == set(TINY)
    for pinned in golden["workloads"].values():
        assert set(pinned) == {"stats", "traced"}
        assert set(pinned["traced"]) == set(run.TRACED_STATS)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: nothing to measure.
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    script = str(tmp_path / "benchmarks" / "e2e" / "run.py")
    child = subprocess.run(
        [sys.executable, script, "--workload", "flood_n14", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert child.returncode != 0
    assert "{" not in child.stdout
    # A full run names the workload whose child failed.
    parent = subprocess.run(
        [sys.executable, script, "--workloads", "flood_n14", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert parent.returncode != 0
    assert "workload flood_n14" in parent.stdout
