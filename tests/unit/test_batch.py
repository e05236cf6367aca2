"""Unit tests for ScenarioSuite / BatchRunner (repro.experiments.batch)."""

import json
import os

import pytest

from repro.experiments.batch import (
    BatchExecutionError,
    BatchRunner,
    ScenarioSuite,
    SuiteItem,
)
from repro.experiments.config import Scenario
from repro.experiments.export import scenario_result_to_dict
from repro.network.loss import LossSpec
from repro.registry import AlgorithmSpec, algorithms


def fast_scenario(**overrides) -> Scenario:
    defaults = dict(
        algorithm="algorithm1",
        n_processes=3,
        max_time=30.0,
        stop_when_all_correct_delivered=True,
        drain_grace_period=2.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def result_fingerprint(result) -> str:
    return json.dumps(scenario_result_to_dict(result), sort_keys=True)


def _seed_and_pid(_item, result):
    """A ``reduce`` (module level: the pool pickles it by name)."""
    return result.scenario.seed, os.getpid()


def _reject_seed_two(_item, result):
    if result.scenario.seed == 2:
        raise RuntimeError("seed two")
    return result.scenario.seed


class TestSuiteConstruction:
    def test_add_and_groups_default_to_scenario_name(self):
        suite = ScenarioSuite("s").add(fast_scenario(name="a")).add(
            fast_scenario(name="b"), group="custom")
        items = suite.build()
        assert [item.group for item in items] == ["a", "custom"]
        assert [item.index for item in items] == [0, 1]

    def test_add_sweep_cross_product_and_custom_groups(self):
        base = fast_scenario()
        suite = ScenarioSuite("s").add_sweep(
            base, "n_processes", [3, 5], groups=["small", "large"])
        items = suite.build()
        assert [item.scenario.n_processes for item in items] == [3, 5]
        assert [item.group for item in items] == ["small", "large"]

    def test_add_sweep_group_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSuite("s").add_sweep(fast_scenario(), "seed", [1, 2],
                                         groups=["only-one"])

    def test_add_sweep_scenario_builder(self):
        base = fast_scenario(n_processes=4)
        suite = ScenarioSuite("s").add_sweep(
            base, "crashes", [0, 1],
            scenario_builder=lambda b, k: b.with_(
                crashes={b.n_processes - 1 - i: 2.0 for i in range(k)}),
        )
        items = suite.build()
        assert items[0].scenario.n_crashes == 0
        assert items[1].scenario.n_crashes == 1

    def test_add_grid_is_row_major_cross_product(self):
        suite = ScenarioSuite("s").add_grid(
            fast_scenario(), seed=[0, 1], n_processes=[3, 4])
        items = suite.build()
        combos = [(i.scenario.seed, i.scenario.n_processes) for i in items]
        assert combos == [(0, 3), (0, 4), (1, 3), (1, 4)]
        assert items[0].group == "seed=0,n_processes=3"

    def test_seed_fan_out_int_offsets_from_scenario_seed(self):
        suite = ScenarioSuite("s").add(fast_scenario(seed=10)).with_seeds(3)
        assert [item.scenario.seed for item in suite.build()] == [10, 11, 12]
        assert len(suite) == 3

    def test_seed_fan_out_explicit_sequence(self):
        suite = ScenarioSuite("s").add(fast_scenario()).with_seeds([7, 9])
        assert [item.scenario.seed for item in suite.build()] == [7, 9]

    def test_non_positive_seed_count_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSuite("s").with_seeds(0)

    def test_constructor_accepts_scenarios(self):
        suite = ScenarioSuite("s", [fast_scenario(name="x")])
        assert len(suite) == 1


class TestSequentialExecution:
    def test_results_are_ordered_and_grouped(self):
        suite = (ScenarioSuite("s")
                 .add(fast_scenario(name="a"))
                 .add(fast_scenario(name="b"))
                 .with_seeds(2))
        result = suite.run()
        assert result.ok
        assert len(result.results) == 4
        assert [item.group for item in result.items] == ["a", "a", "b", "b"]
        groups = result.groups()
        assert list(groups) == ["a", "b"]
        assert all(len(rs) == 2 for rs in groups.values())

    def test_progress_callback_sequential(self):
        calls = []
        (ScenarioSuite("s").add(fast_scenario()).with_seeds(3)).run(
            progress=lambda done, total, item: calls.append((done, total)))
        assert calls == [(1, 3), (2, 3), (3, 3)]

    def test_describe_mentions_counts(self):
        result = (ScenarioSuite("named").add(fast_scenario())).run()
        text = result.describe()
        assert "named" in text
        assert "1/1" in text

    def test_runner_accepts_plain_scenarios_and_items(self):
        runner = BatchRunner()
        from_scenarios = runner.run([fast_scenario(name="x")])
        assert len(from_scenarios.results) == 1
        item = SuiteItem(index=0, group="g", scenario=fast_scenario())
        from_items = runner.run([item])
        assert from_items.items == (item,)

    def test_runner_handles_subset_of_prebuilt_items(self):
        suite = ScenarioSuite("s")
        for seed in range(4):
            suite.add(fast_scenario(name=f"sc{seed}", seed=seed))
        subset = suite.build()[2:4]  # item.index is 2 and 3, positions 0 and 1
        result = BatchRunner().run(subset)
        assert result.ok
        assert [r.scenario.seed for r in result.results] == [2, 3]
        assert result.outcomes[0].scenario.seed == 2

    def test_invalid_parallel_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(parallel=0)


class TestFailureIsolation:
    def test_one_broken_scenario_does_not_sink_the_suite(self):
        def broken_factory(scenario, index, env):
            raise RuntimeError("intentional failure")

        spec = AlgorithmSpec(name="tmp_broken", factory=broken_factory)
        with algorithms.scoped(spec):
            suite = (ScenarioSuite("s")
                     .add(fast_scenario(name="good"))
                     .add(fast_scenario(name="bad", algorithm="tmp_broken"))
                     .add(fast_scenario(name="good2")))
            result = suite.run()
        assert not result.ok
        assert len(result.results) == 2
        assert result.outcomes[1] is None
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 1
        assert "intentional failure" in failure.error
        assert "intentional failure" in failure.details
        with pytest.raises(BatchExecutionError) as excinfo:
            result.raise_on_failure()
        assert "item 1" in str(excinfo.value)

    def test_raise_on_failure_passthrough_when_ok(self):
        result = (ScenarioSuite("s").add(fast_scenario())).run()
        assert result.raise_on_failure() is result

    def test_batch_error_message_includes_worker_traceback(self):
        def broken_factory(scenario, index, env):
            raise RuntimeError("traceback-carrier")

        spec = AlgorithmSpec(name="tmp_broken_tb", factory=broken_factory)
        with algorithms.scoped(spec):
            result = (ScenarioSuite("s")
                      .add(fast_scenario(algorithm="tmp_broken_tb"))).run()
        with pytest.raises(BatchExecutionError) as excinfo:
            result.raise_on_failure()
        assert "traceback-carrier" in str(excinfo.value)
        assert "broken_factory" in str(excinfo.value)  # frame from the trace

    def test_on_result_sees_successes_only_as_they_complete(self):
        def broken_factory(scenario, index, env):
            raise RuntimeError("intentional failure")

        seen = []
        spec = AlgorithmSpec(name="tmp_broken_cb", factory=broken_factory)
        with algorithms.scoped(spec):
            suite = (ScenarioSuite("s")
                     .add(fast_scenario(name="good", seed=1))
                     .add(fast_scenario(name="bad", algorithm="tmp_broken_cb"))
                     .add(fast_scenario(name="good2", seed=2)))
            result = suite.run(
                on_result=lambda item, outcome: seen.append(
                    (item.index, outcome.scenario.seed)),
            )
        # The failed item never reaches the callback; successes do, with
        # their suite item attached.
        assert seen == [(0, 1), (2, 2)]
        assert len(result.failures) == 1

    def test_on_result_runs_in_calling_process_for_pool_runs(self):
        seen = []
        suite = (ScenarioSuite("s")
                 .add(fast_scenario(seed=1)).add(fast_scenario(seed=2)))
        result = suite.run(
            parallel=2,
            on_result=lambda item, outcome: seen.append(item.index),
        )
        assert sorted(seen) == [0, 1]
        assert result.ok

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_consumer_owns_the_result_and_the_batch_keeps_its_answer(
            self, parallel):
        suite = (ScenarioSuite("s")
                 .add(fast_scenario(seed=1)).add(fast_scenario(seed=2)))
        kept = suite.run(parallel=parallel)
        assert [r.scenario.seed for r in kept.outcomes] == [1, 2]
        consumed = suite.run(
            parallel=parallel,
            on_result=lambda item, result: ("seed", result.scenario.seed))
        assert consumed.outcomes == (("seed", 1), ("seed", 2))
        assert consumed.ok

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_reduce_runs_where_the_run_finished(self, parallel):
        suite = [fast_scenario(seed=1), fast_scenario(seed=2)]
        seen = []
        batch = BatchRunner(
            parallel=parallel, reduce=_seed_and_pid,
            on_result=lambda item, kept: seen.append((item.index, kept[0]))
            or kept,
        ).run(suite)
        # on_result gets what reduce kept, in the calling process; reduce
        # itself ran beside the simulation.
        assert sorted(seen) == [(0, 1), (1, 2)]
        assert [seed for seed, _pid in batch.outcomes] == [1, 2]
        in_caller = [pid == os.getpid() for _seed, pid in batch.outcomes]
        assert in_caller == [parallel == 1] * 2

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_reduce_failure_is_that_items_failure(self, parallel):
        suite = [fast_scenario(seed=1), fast_scenario(seed=2)]
        batch = BatchRunner(parallel=parallel, reduce=_reject_seed_two).run(suite)
        assert batch.outcomes == (1, None)
        assert [f.index for f in batch.failures] == [1]
        assert "seed two" in batch.failures[0].details

    def test_fail_fast_inline_reduces_too(self):
        batch = BatchRunner(fail_fast=True, reduce=_seed_and_pid).run(
            [fast_scenario(seed=5)])
        assert batch.outcomes == ((5, os.getpid()),)

    def test_pool_worker_computes_the_analyses_of_a_whole_result(self):
        """With no reduce the result travels whole, and the work of its
        analyses stays in the worker that ran it."""
        computed = ("verdict", "quiescence", "anonymity")
        inline, pooled = (
            BatchRunner(parallel=parallel).run(
                [fast_scenario(seed=1), fast_scenario(seed=2)]).results
            for parallel in (1, 2))
        for result in inline:
            assert not set(computed) & set(vars(result))
        for result in pooled:
            assert set(computed) <= set(vars(result))
        assert [result_fingerprint(r) for r in pooled] == [
            result_fingerprint(r) for r in inline]

    def test_fail_fast_inline_preserves_exception_type(self):
        class CustomError(RuntimeError):
            pass

        def broken_factory(scenario, index, env):
            raise CustomError("original type survives")

        spec = AlgorithmSpec(name="tmp_fail_fast", factory=broken_factory)
        with algorithms.scoped(spec):
            suite = ScenarioSuite("s").add(fast_scenario(algorithm="tmp_fail_fast"))
            with pytest.raises(CustomError):
                suite.run(fail_fast=True)


class TestParallelExecution:
    def suite(self) -> ScenarioSuite:
        base = fast_scenario(algorithm="algorithm2", n_processes=4,
                             loss=LossSpec.bernoulli(0.2),
                             stop_when_all_correct_delivered=False,
                             stop_when_quiescent=True,
                             max_time=60.0)
        return (ScenarioSuite("cmp")
                .add_sweep(base, "loss",
                           [LossSpec.none(), LossSpec.bernoulli(0.3)])
                .with_seeds(2))

    def test_parallel_results_byte_identical_to_sequential(self):
        sequential = self.suite().run(parallel=1)
        parallel = self.suite().run(parallel=4)
        assert sequential.ok and parallel.ok
        assert parallel.parallel > 1
        sequential_bytes = [result_fingerprint(r) for r in sequential.results]
        parallel_bytes = [result_fingerprint(r) for r in parallel.results]
        assert sequential_bytes == parallel_bytes

    def test_parallel_progress_counts_monotonic(self):
        calls = []
        self.suite().run(parallel=2,
                         progress=lambda done, total, item: calls.append(
                             (done, total)))
        assert [c[0] for c in calls] == [1, 2, 3, 4]
        assert all(c[1] == 4 for c in calls)

    def test_workers_clamped_to_item_count(self):
        result = (ScenarioSuite("s").add(fast_scenario())).run(parallel=8)
        assert result.parallel == 1  # one item -> inline execution

