"""Observability must stay off the simulation path.

The invariant the whole obs layer is built around: enabling metrics (or
the timeline) changes **nothing** observable about a run — traces,
metrics summaries, delivery logs and channel statistics stay
bit-identical, under every engine backend.  These tests pin that on a
subset of the PR 7 parity battery (and the run's execution record on all
of it), and cover the instrumentation call sites themselves (batch
runner, result store, engine counters)."""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.campaigns.hashing import scenario_cell_key
from repro.campaigns.store import ResultStore
from repro.experiments.batch import BatchRunner
from repro.experiments.config import Scenario
from repro.experiments.parity import parity_cases, run_fingerprint
from repro.experiments.runner import run_scenario
from repro.registry import engines


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    yield
    obs.reset()
    obs.set_timeline(None)


#: A fast cross-section of the battery: the headline vector path, the
#: fairness-guard path, and the per-event fallback exercised by crashes.
_BATTERY_SUBSET = ("bernoulli-uniform", "heavy-loss-guard", "crashes-mid-run")


#: The components of a parity fingerprint: ``fingerprint()`` and
#: ``engine_fingerprint()``, without the execution record.
_FINGERPRINT_KEYS = {"trace_digest", "metrics", "deliveries", "event_stats",
                     "final_time", "stop_reason", "channel_stats",
                     "channel_guards", "final_seq"}


def _battery_subset():
    by_name = {scenario.name: scenario for scenario in parity_cases()}
    return [by_name[name] for name in _BATTERY_SUBSET]


class TestObsOffPath:
    @pytest.mark.parametrize("engine", sorted(engines.names()))
    @pytest.mark.parametrize("name", _BATTERY_SUBSET)
    def test_fingerprints_identical_obs_on_vs_off(self, engine, name):
        scenario = {s.name: s for s in parity_cases()}[name]
        obs.disable()
        baseline = run_fingerprint(scenario, engine).fingerprint
        obs.enable()
        stream = io.StringIO()
        obs.set_timeline(obs.Timeline(stream))
        try:
            instrumented = run_fingerprint(scenario, engine).fingerprint
        finally:
            obs.set_timeline(None)
        assert instrumented == baseline

    @pytest.mark.parametrize("engine", sorted(engines.names()))
    @pytest.mark.parametrize("name", [s.name for s in parity_cases()])
    def test_execution_record_does_not_depend_on_obs(self, engine, name):
        scenario = {s.name: s for s in parity_cases()}[name]
        obs.disable()
        baseline = run_fingerprint(scenario, engine)
        obs.enable()
        obs.set_timeline(obs.Timeline(io.StringIO()))
        try:
            instrumented = run_fingerprint(scenario, engine)
        finally:
            obs.set_timeline(None)
        assert instrumented.execution == baseline.execution
        assert baseline.execution.engine == engine
        # How a run ran is not part of what the engines must agree on.
        assert set(baseline.fingerprint) == _FINGERPRINT_KEYS

    def test_enabled_run_actually_records(self):
        obs.enable()
        scenario = _battery_subset()[0]
        run_fingerprint(scenario, "reference")
        runs = obs.REGISTRY.get("repro_sim_runs_total")
        events = obs.REGISTRY.get("repro_sim_events_total")
        assert runs.value(engine="reference", dispatch_mode="per-event") == 1
        assert events.value(engine="reference") > 0


class TestEngineCounters:
    def test_vectorized_batched_run_records_chunks(self):
        obs.enable()
        scenario = _battery_subset()[0]
        run_fingerprint(scenario, "vectorized")
        runs = obs.REGISTRY.get("repro_sim_runs_total")
        (labels, value), *rest = [
            (labels, value) for labels, value in runs.samples() if value]
        assert not rest
        assert dict(zip(runs.labelnames, labels))["engine"] == "vectorized"
        chunks = obs.REGISTRY.get("repro_engine_chunk_cells")
        ((_, (_, _, count)),) = chunks.samples()
        assert count > 0

    def test_full_trace_fallback_reason_recorded(self):
        obs.enable()
        scenario = _battery_subset()[0].with_(trace_enabled=True)
        from repro.experiments.runner import build_engine
        from repro.simulation.tracing import TraceLevel, TraceRecorder

        engine = build_engine(scenario.with_(engine="vectorized"))
        engine.trace = TraceRecorder(enabled=True, level=TraceLevel.FULL)
        engine.run()
        fallbacks = obs.REGISTRY.get("repro_engine_fallback_total")
        assert fallbacks.value(reason="full_trace") == 1


class TestBatchRunnerInstrumentation:
    def _scenario(self):
        return Scenario(name="batch-obs", algorithm="algorithm2",
                        n_processes=4, seed=7, max_time=30.0,
                        stop_when_quiescent=True)

    def test_inline_run_counts_cells_and_settles_in_flight(self):
        obs.enable()
        BatchRunner(parallel=1).run([self._scenario()] * 3)
        cells = obs.REGISTRY.get("repro_batch_cells_total")
        assert cells.value(status="ok") == 3
        assert cells.value(status="failed") == 0
        assert obs.REGISTRY.get("repro_batch_in_flight").value() == 0
        seconds = obs.REGISTRY.get("repro_batch_cell_seconds")
        ((_, (_, total, count)),) = seconds.samples()
        assert count == 3 and total > 0

    def test_failures_counted_and_in_flight_settles(self):
        obs.enable()
        bad = self._scenario().with_(name="bad",
                                     metadata={"burst_size": -1},
                                     workload="burst")
        outcome = BatchRunner(parallel=1, fail_fast=False).run(
            [self._scenario(), bad])
        cells = obs.REGISTRY.get("repro_batch_cells_total")
        assert cells.value(status="failed") == len(outcome.failures)
        assert cells.value(status="ok") == 2 - len(outcome.failures)
        assert obs.REGISTRY.get("repro_batch_in_flight").value() == 0


class TestStoreCounters:
    def _result(self, seed=0):
        return run_scenario(Scenario(
            name="store-obs", algorithm="algorithm2", n_processes=4,
            seed=seed, max_time=30.0, stop_when_quiescent=True))

    def test_lookup_and_put_metrics(self, tmp_path):
        obs.enable()
        with ResultStore(tmp_path / "store") as store:
            result = self._result()
            key = scenario_cell_key(result.scenario)
            assert not store.contains(key)
            store.put(result)
            assert store.contains(key)
        lookups = obs.REGISTRY.get("repro_store_lookups_total")
        label = (tmp_path / "store").name
        assert lookups.value(store=label, result="miss") == 1
        assert lookups.value(store=label, result="hit") == 1
        assert obs.REGISTRY.get(
            "repro_store_puts_total").value(store=label) == 1
        assert obs.REGISTRY.get(
            "repro_store_blob_bytes_total").value(store=label) > 0

    def test_handle_counters_are_per_handle_and_the_series_sums_them(
            self, tmp_path):
        obs.enable()
        root = tmp_path / "store"
        result = self._result()
        key = scenario_cell_key(result.scenario)
        with ResultStore(root) as store:
            store.contains(key)             # miss
            store.put(result)
            store.contains(key)             # hit
            assert (store.hits, store.misses, store.puts) == (1, 1, 1)
        first, second = ResultStore(root), ResultStore(root)
        try:
            assert (first.hits, first.misses, first.puts) == (0, 0, 0)
            first.contains(key)
            second.contains(key)
            assert (first.hits, second.hits) == (1, 1)
        finally:
            first.close()
            second.close()
        # Totals across handles live in the registry and nowhere else.
        lookups = obs.REGISTRY.get("repro_store_lookups_total")
        assert lookups.value(store=root.name, result="hit") == 3
        assert lookups.value(store=root.name, result="miss") == 1
        with ResultStore(root) as store:
            assert [row["key"] for row in store._db.execute(
                "SELECT key FROM meta")] == ["schema_version"]


class TestTimelineFromRuns:
    def test_store_traffic_lands_on_the_timeline(self, tmp_path):
        obs.enable()
        stream = io.StringIO()
        obs.set_timeline(obs.Timeline(stream))
        try:
            with ResultStore(tmp_path / "store") as store:
                result = run_scenario(Scenario(
                    name="tl", algorithm="algorithm2", n_processes=4,
                    seed=3, max_time=30.0, stop_when_quiescent=True))
                store.contains(scenario_cell_key(result.scenario))
                store.put(result)
        finally:
            obs.set_timeline(None)
        kinds = [json.loads(line)["kind"]
                 for line in stream.getvalue().splitlines()]
        assert "store.miss" in kinds
        assert "store.put" in kinds
