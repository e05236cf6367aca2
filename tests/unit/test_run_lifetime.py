"""A finished run frees itself: reference counting, not the cyclic collector.

The one back-edge of a run's object graph — environment ⇢ engine — is weak
(``simulation/environment.py``), so whoever runs an engine owns it and a
result never reaches one.  Every case here runs with the collector switched
off, drops the last reference, and requires (a) that the trace died right
there and (b) that a full collection afterwards finds nothing: no cycle
anywhere in what a run allocates.  A span that captured the engine would
show up as a non-zero count — a finding to report, not to hide.
"""

from __future__ import annotations

import gc
import io
import pickle
import weakref

import pytest

from helpers import track_live_runs
from repro import obs
from repro.campaigns import Campaign, ResultStore, scenario_cell_key
from repro.campaigns.campaign import _pack_cell
from repro.experiments.batch import SuiteItem, _execute_item
from repro.experiments.config import Scenario
from repro.experiments.export import scenario_result_to_dict
from repro.experiments.runner import build_engine, default_scenario, run_scenario
from repro.explore import replay_decisions
from repro.network.loss import LossSpec
from repro.registry import algorithms, engines, strategies
from repro.simulation.metrics import MetricsCollector, MetricsLevel
from repro.simulation.tracing import TraceLevel, TraceRecorder
from repro.workloads.generators import SingleBroadcast


@pytest.fixture(autouse=True)
def collector_off():
    """Start from a collected heap and keep the collector out of the way."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _scenario(algorithm: str, **changes) -> Scenario:
    return default_scenario(
        algorithm, n_processes=5, seed=3, loss=LossSpec.bernoulli(0.1),
        **changes)


def _assert_freed(trace_ref: weakref.ref) -> None:
    assert trace_ref() is None, "the trace outlived its last reference"
    assert gc.collect() == 0, "a finished run left cyclic garbage behind"


@pytest.mark.parametrize("engine", sorted(engines.names()))
@pytest.mark.parametrize("algorithm", sorted(algorithms.names()))
class TestEveryAlgorithmAndEngine:
    def test_full_trace_result_frees_itself(self, algorithm, engine):
        result = run_scenario(_scenario(algorithm, engine=engine))
        assert result.simulation.event_stats.total > 0
        ref = weakref.ref(result.simulation.trace)
        del result
        _assert_freed(ref)

    def test_protocol_observables_only(self, algorithm, engine):
        """DELIVERIES/COUNTERS, as the parity battery runs: the vectorized
        backend takes its batched path here."""
        built = build_engine(_scenario(algorithm, engine=engine))
        built.trace = TraceRecorder(enabled=True, level=TraceLevel.DELIVERIES)
        built.metrics = MetricsCollector(level=MetricsLevel.COUNTERS)
        result = built.run()
        if engine == "vectorized":
            assert result.execution.dispatch_mode == "batched"
        ref = weakref.ref(result.trace)
        del built, result
        _assert_freed(ref)


@pytest.mark.parametrize("strategy", sorted(strategies.names()))
def test_explored_schedule_frees_itself(strategy):
    scenario = Scenario(
        name="lifetime-explore", algorithm="algorithm1", n_processes=3,
        max_time=40.0, stop_when_all_correct_delivered=True,
        workload=SingleBroadcast(sender=0, time=0.0), seed=3,
        explore_strategy=strategy, explore_index=1,
    )
    result = run_scenario(scenario)
    assert result.simulation.schedule.strategy == strategy
    ref = weakref.ref(result.simulation.trace)
    del result
    _assert_freed(ref)


def test_replayed_decisions_free_themselves():
    scenario = _scenario("algorithm1", explore_strategy="random_walk",
                         explore_index=2)
    decisions = run_scenario(scenario).simulation.schedule.decisions
    assert decisions
    simulation, verdict = replay_decisions(scenario, decisions)
    ref = weakref.ref(simulation.trace)
    del simulation, verdict
    _assert_freed(ref)


def test_campaign_frees_each_run_where_it_finished(tmp_path, monkeypatch):
    """A campaign packs a run when it finishes and keeps the packed cell:
    no run is alive when the next one ends, none after the last, and the
    whole campaign leaves the collector nothing."""
    suite = [_scenario("algorithm2").with_seed(seed) for seed in range(10)]
    run_scenario(suite[0]).metrics  # first use: numpy's lazy imports, cyclic
    gc.collect()
    live, at_finish = track_live_runs(monkeypatch)
    with ResultStore(tmp_path / "store") as store:
        assert Campaign(store, suite, name="c").run().executed == 10
        assert at_finish == [1] * 10 and not live
    assert gc.collect() == 0, "a campaign left cyclic garbage behind"


def test_obs_enabled_run_frees_itself():
    obs.reset()
    obs.enable()
    previous = obs.set_timeline(obs.Timeline(io.StringIO()))
    try:
        result = run_scenario(_scenario("algorithm2"))
        assert obs.REGISTRY.get("repro_sim_runs_total") is not None
        ref = weakref.ref(result.simulation.trace)
        del result
        _assert_freed(ref)
    finally:
        obs.set_timeline(previous)
        obs.reset()


def test_environment_outlives_its_engine_only_to_raise():
    engine = build_engine(_scenario("algorithm1"))
    simulation = engine.run()
    env = engine.environments[0]
    process = simulation.processes[0]
    env.atheta()  # a live engine still answers
    engine_ref = weakref.ref(engine)
    del engine
    assert engine_ref() is None, "something besides the caller held the engine"
    for call in (lambda: env.broadcast("late"), env.atheta, env.apstar,
                 lambda: process.urb_broadcast("late")):
        with pytest.raises(ReferenceError):
            call()
    assert env.engine_index == 0 and env.random is not None
    # The result is whole without the engine.
    assert simulation.delivery_logs[0].contents()
    assert gc.collect() == 0


@pytest.mark.parametrize("engine", sorted(engines.names()))
def test_result_pickles_without_its_engine(engine):
    """What a pool worker ships back: the n=8 Algorithm 2 Bernoulli
    FULL-trace grid cell was 639 kB while ``env._engine`` dragged the queue,
    the network and its n² channels along."""
    result = run_scenario(default_scenario(
        "algorithm2", n_processes=8, seed=1234, engine=engine,
        loss=LossSpec.bernoulli(0.1)))
    data = pickle.dumps(result)
    assert len(data) < 200_000
    for name in (b"EventQueue", b"Network", b"FairLossyChannel",
                 b"SimulationEngine", b"VectorizedEngine"):
        assert name not in data
    shipped = pickle.loads(data)
    assert scenario_result_to_dict(shipped) == scenario_result_to_dict(result)
    assert shipped.simulation.trace.digest() == result.simulation.trace.digest()


def test_campaign_cell_ships_packed():
    """What a campaign's pool worker ships back for that same cell: the
    index row and the compressed payload (the whole result is 90 kB)."""
    scenario = default_scenario(
        "algorithm2", n_processes=8, seed=1234, loss=LossSpec.bernoulli(0.1))
    item = SuiteItem(index=0, group="g", scenario=scenario)
    key = scenario_cell_key(scenario)
    shipped = _execute_item(item, _pack_cell)
    data = pickle.dumps(shipped)
    assert len(data) < 4_000
    for name in (b"TraceRecorder", b"SimulationResult", b"ScenarioResult"):
        assert name not in data
    cell, wall_time, error, details = pickle.loads(data)
    assert (error, details) == (None, "") and wall_time > 0
    assert cell.cell_key == key and len(cell.payload) < 3_000
