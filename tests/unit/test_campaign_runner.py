"""Unit tests for the resumable campaign runner and its aggregates."""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import track_live_runs
from repro.campaigns import (
    Campaign,
    ResultStore,
    StoreError,
    campaign_groups,
    campaign_table,
    format_group_rows,
    run_campaign,
    scenario_cell_key,
)
from repro.experiments.batch import ScenarioSuite
from repro.experiments.config import Scenario
from repro.network.loss import LossSpec
from repro.registry import algorithms
from repro.registry.specs import AlgorithmSpec


def quick_scenario(**overrides) -> Scenario:
    base = dict(
        name="campaign-test",
        algorithm="algorithm2",
        n_processes=4,
        max_time=60.0,
        stop_when_quiescent=True,
        drain_grace_period=3.0,
    )
    base.update(overrides)
    return Scenario(**base)


def loss_suite(seeds: int = 2) -> ScenarioSuite:
    return (
        ScenarioSuite("loss-sweep")
        .add_sweep(quick_scenario(), "loss",
                   [LossSpec.none(), LossSpec.bernoulli(0.2)],
                   groups=["p=0", "p=0.2"])
        .with_seeds(seeds)
    )


class TestCampaignRun:
    def test_fresh_run_executes_every_cell(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            report = Campaign(store, loss_suite(), name="c").run()
            assert report.total == 4
            assert report.executed == 4
            assert report.cached == 0
            assert report.complete
            assert len(store) == 4
            info = store.campaign_info("c")
            assert info.complete and info.done == 4

    def test_second_run_is_all_cache_hits(self, tmp_path):
        """The acceptance guarantee: zero duplicate simulations."""
        with ResultStore(tmp_path / "store") as store:
            Campaign(store, loss_suite(), name="c").run()
            puts_before = store.puts
            report = Campaign(store, loss_suite(), name="c").run(resume=True)
            assert report.executed == 0
            assert report.cached == report.total == 4
            assert store.puts == puts_before  # nothing recomputed
            assert store.hits >= 4

    def test_interrupted_run_resumes_exactly(self, tmp_path):
        """Cells persisted before an interruption are never re-simulated."""
        suite = loss_suite(seeds=3)  # 6 cells
        prefix = ScenarioSuite("prefix", (
            item.scenario for item in suite.build()[:2]
        ))
        with ResultStore(tmp_path / "store") as store:
            # Simulate a killed run: only the first two cells got persisted.
            Campaign(store, prefix, name="partial").run()
            assert len(store) == 2
            report = Campaign(store, suite, name="full").run()
            assert report.cached == 2
            assert report.executed == 4
            assert len(store) == 6

    def test_name_reuse_requires_resume(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            Campaign(store, loss_suite(), name="c").run()
            with pytest.raises(StoreError, match="resume"):
                Campaign(store, loss_suite(), name="c").run()

    def test_duplicate_cells_run_once(self, tmp_path):
        scenario = quick_scenario()
        suite = ScenarioSuite("dup").add(scenario).add(scenario)
        with ResultStore(tmp_path / "store") as store:
            report = Campaign(store, suite, name="dup").run()
            assert report.total == 2
            assert report.executed == 1
            assert report.duplicates == 1
            assert len(store) == 1
            # Counter classification is stable across runs: the duplicate
            # position stays a duplicate, the stored cell becomes the hit.
            resumed = Campaign(store, suite, name="dup").run(resume=True)
            assert resumed.cached == 1
            assert resumed.duplicates == 1
            assert resumed.executed == 0
            info = store.campaign_info("dup")
            assert info.total == 1 and info.complete

    def test_recompute_overwrites_cached_cells(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            Campaign(store, loss_suite(), name="c").run()
            report = Campaign(store, loss_suite(), name="c").run(
                recompute=True)
            assert report.executed == 4
            assert report.cached == 0
            assert store.puts == 8

    def test_the_pool_is_invisible_in_the_results(self, tmp_path):
        with ResultStore(tmp_path / "s1") as inline, \
                ResultStore(tmp_path / "s2") as pooled:
            one = Campaign(inline, loss_suite(), name="c").run()
            two = Campaign(pooled, loss_suite(), name="c", parallel=2).run()
            assert (one.executed, one.cached) == (two.executed, two.cached)
            rows_a = inline.query(campaign="c")
            rows_b = pooled.query(campaign="c")
            assert [r.cell_key for r in rows_a] == [r.cell_key for r in rows_b]
            assert [r.mean_latency for r in rows_a] == [
                r.mean_latency for r in rows_b
            ]

    def test_progress_reports_pending_cells(self, tmp_path):
        calls = []
        with ResultStore(tmp_path / "store") as store:
            Campaign(store, loss_suite(), name="c").run(
                progress=lambda done, total, item: calls.append((done, total))
            )
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_holds_one_live_run(self, tmp_path, monkeypatch):
        live, at_finish = track_live_runs(monkeypatch)
        held = []
        with ResultStore(tmp_path / "store") as store:
            report = Campaign(store, loss_suite(seeds=12), name="c").run(
                progress=lambda *_: held.append(len(live)))
            assert report.executed == 24 and len(store) == 24
        # Every run finished with no earlier one alive, and was packed and
        # freed on the spot: the flush buffer holds packed cells only.
        assert at_finish == [1] * 24 and held == [0] * 24
        assert not live

    def test_failures_are_isolated_and_retried_on_resume(self, tmp_path):
        boom = AlgorithmSpec(
            name="campaign_boom",
            factory=lambda scenario, index, env: (_ for _ in ()).throw(
                RuntimeError("boom")),
            description="always crashes (test)",
        )
        with algorithms.scoped(boom):
            suite = ScenarioSuite("mixed", [
                quick_scenario(),
                quick_scenario(algorithm="campaign_boom", seed=1),
            ])
            with ResultStore(tmp_path / "store") as store:
                report = Campaign(store, suite, name="mixed").run()
                assert report.executed == 1
                assert len(report.failures) == 1
                assert report.failures[0].index == 1
                assert "boom" in report.failures[0].details
                assert not report.complete
                assert len(store) == 1
                # The failed cell stays pending: a resume retries it (and
                # only it).
                retry = Campaign(store, suite, name="mixed").run(resume=True)
                assert retry.cached == 1
                assert len(retry.failures) == 1
                # Pending position 0, suite position 1.
                assert retry.failures[0].index == 1

    def test_run_campaign_accepts_a_path(self, tmp_path):
        report = run_campaign(tmp_path / "store", loss_suite(), name="c")
        assert report.executed == 4
        with ResultStore(tmp_path / "store", create=False) as store:
            assert len(store) == 4


class TestCampaignAggregates:
    def test_aggregates_bit_identical_to_in_memory_sweep(self, tmp_path):
        """Stored aggregates must equal a single-shot in-memory sweep,
        float for float and cell string for cell string."""
        suite = loss_suite(seeds=3)
        live = suite.run()
        with ResultStore(tmp_path / "store") as store:
            # Interrupt + resume on purpose: the guarantee must hold even
            # for a store populated across several runs.
            prefix = ScenarioSuite("p", (
                item.scenario for item in suite.build()[:3]
            ))
            Campaign(store, prefix, name="warmup").run()
            Campaign(store, suite, name="real").run()

            stored_groups = campaign_groups(store, "real")
            live_groups = live.groups()
            assert list(stored_groups) == list(live_groups)
            for group in live_groups:
                stored_latencies = [r.mean_latency
                                    for r in stored_groups[group]]
                live_latencies = [r.metrics.mean_latency
                                  for r in live_groups[group]]
                assert stored_latencies == live_latencies  # exact floats

            stored_rows = campaign_table(store, "real").rows
            live_rows = format_group_rows(
                live_groups,
                mean_latency_of=lambda r: r.metrics.mean_latency,
                ok_of=lambda r: r.all_properties_hold,
                quiescent_of=lambda r: r.quiescence.quiescent,
            )
            assert stored_rows == live_rows

    def test_parallel_campaign_matches_sequential(self, tmp_path):
        suite = loss_suite()
        with ResultStore(tmp_path / "seq") as sequential, \
                ResultStore(tmp_path / "par") as parallel:
            Campaign(sequential, suite, name="c").run()
            Campaign(parallel, suite, name="c", parallel=2).run()
            # Cells packed in pool workers: the same index rows and the same
            # payloads as cells packed in-process, but for the clock.
            rows_seq, rows_par = (
                [replace(row, created_at=0.0, wall_time=None)
                 for row in store.query(campaign="c")]
                for store in (sequential, parallel))
            assert len(rows_seq) == 4 and rows_par == rows_seq
            for row in rows_seq:
                loaded_seq, loaded_par = (
                    store.load(row.cell_key) for store in (sequential, parallel))
                assert loaded_seq.pop("created_at") and loaded_par.pop("created_at")
                assert loaded_par == loaded_seq

    def test_campaign_rows_align_with_items(self, tmp_path):
        suite = loss_suite()
        with ResultStore(tmp_path / "store") as store:
            campaign = Campaign(store, suite, name="c")
            assert all(row is None for row in campaign.rows())
            campaign.run()
            rows = campaign.rows()
            assert all(row is not None for row in rows)
            assert [row.cell_key for row in rows] == list(
                campaign.cell_keys()
            )
            assert [row.seed for row in rows] == [
                item.scenario.seed for item in campaign.items
            ]

    def test_cell_keys_cross_campaign_cache(self, tmp_path):
        """A different campaign covering the same configuration reuses the
        stored cell — the cache is content-addressed, not campaign-scoped."""
        scenario = quick_scenario()
        with ResultStore(tmp_path / "store") as store:
            Campaign(store, [scenario], name="first").run()
            report = Campaign(store, [scenario], name="second").run()
            assert report.cached == 1 and report.executed == 0
            assert len(store) == 1
            assert store.contains(scenario_cell_key(scenario), count=False)
