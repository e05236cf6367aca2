"""Unit tests for the distributed campaign subsystem: lease protocol,
store merge, worker/coordinator, and cost planning."""

from __future__ import annotations

import dataclasses
import io
import json
import sqlite3
import threading
import zlib
from contextlib import closing

import pytest

from helpers import (downgrade_store, rewrite_payload, tamper_with_payload,
                     trace_statements, writes)
from repro import obs
from repro.campaigns import (
    Coordinator,
    MergeConflictError,
    ResultStore,
    StoreError,
    Worker,
    campaign_table,
    merge_store_paths,
    merge_stores,
    plan_campaign,
    run_campaign,
    scenario_cell_key,
)
from repro.campaigns.distributed import LeaseError, LeaseTable
from repro.campaigns.distributed import worker as worker_module
from repro.campaigns.distributed.leases import DEFAULT_LEASE_TIMEOUT
from repro.experiments.batch import ScenarioSuite
from repro.experiments.config import Scenario
from repro.experiments.runner import run_scenario
from repro.explore.serialize import scenario_to_dict
from repro.network.loss import LossSpec
from repro.obs import spans


def quick_scenario(**overrides) -> Scenario:
    base = dict(
        name="dist-test",
        algorithm="algorithm2",
        n_processes=4,
        max_time=60.0,
        stop_when_quiescent=True,
        drain_grace_period=3.0,
    )
    base.update(overrides)
    return Scenario(**base)


def quick_suite(seeds: int = 3) -> ScenarioSuite:
    suite = ScenarioSuite("dist-suite")
    suite.add_sweep(quick_scenario(), "loss",
                    [LossSpec.none(), LossSpec.bernoulli(0.2)])
    return suite.with_seeds(seeds)


def manifest_cells(n: int) -> list[tuple[int, str, str, dict]]:
    """A synthetic n-cell manifest (lease tests never execute cells)."""
    return [
        (index, f"g{index % 2}", f"key{index:04d}",
         scenario_to_dict(quick_scenario(seed=index)))
        for index in range(n)
    ]


def make_job(tmp_path, n_cells: int = 8, *, lease_timeout: float = 10.0,
             range_size: int = 4) -> LeaseTable:
    table = LeaseTable(tmp_path / "job", create=True)
    table.initialise(name="job", suite_name="suite",
                     cells=manifest_cells(n_cells),
                     lease_timeout=lease_timeout, range_size=range_size)
    return table


# --------------------------------------------------------------------------- #
# lease protocol
# --------------------------------------------------------------------------- #
class TestLeaseTable:
    def test_open_missing_job_fails(self, tmp_path):
        with pytest.raises(LeaseError, match="no distributed job"):
            LeaseTable(tmp_path / "absent")

    def test_initialise_is_idempotent_on_identical_manifest(self, tmp_path):
        with make_job(tmp_path) as table:
            table.initialise(name="job", suite_name="suite",
                             cells=manifest_cells(8))
            assert table.status().total_cells == 8

    def test_initialise_rejects_a_different_manifest(self, tmp_path):
        with make_job(tmp_path) as table:
            with pytest.raises(LeaseError, match="different manifest"):
                table.initialise(name="job", suite_name="suite",
                                 cells=manifest_cells(9))
            with pytest.raises(LeaseError, match="different manifest"):
                table.initialise(name="other", suite_name="suite",
                                 cells=manifest_cells(8))

    def test_lease_timeout_is_read_once_per_handle(self, tmp_path):
        # A worker may open its handle before the coordinator wrote the job.
        early = LeaseTable(tmp_path / "job", create=True)
        assert early.lease_timeout == DEFAULT_LEASE_TIMEOUT
        make_job(tmp_path, n_cells=2, range_size=2, lease_timeout=7.5).close()
        with early as table:
            assert table.lease_timeout == 7.5  # the default was not cached
            statements: list[str] = []
            table._db.set_trace_callback(statements.append)
            grant = table.claim("w1", now=100.0)
            assert grant is not None and grant.lease_expires == 107.5
            assert table.renew(grant, now=101.0)
            assert table.record_cell_done(grant, now=102.0)
            assert statements and not [s for s in statements if "meta" in s]

    def test_opening_a_current_table_writes_nothing(self, tmp_path, monkeypatch):
        make_job(tmp_path).close()
        statements = trace_statements(monkeypatch)
        with LeaseTable(tmp_path / "job") as worker_side, \
                LeaseTable(tmp_path / "job", create=True) as coordinator_side:
            assert worker_side.status().total_cells == 8
            assert coordinator_side.lease_timeout == 10.0
        assert statements and writes(statements) == []

    def test_claim_grants_disjoint_ranges_in_position_order(self, tmp_path):
        with make_job(tmp_path) as table:
            first = table.claim("w1", now=100.0)
            second = table.claim("w2", now=100.0)
            assert first is not None and second is not None
            assert first.start == 0 and second.start == first.count
            positions = [cell.position for cell in first.cells]
            assert positions == list(range(first.start,
                                           first.start + first.count))
            assert [cell.cell_key for cell in first.cells] == [
                f"key{p:04d}" for p in positions
            ]

    def test_claim_returns_none_when_everything_is_leased(self, tmp_path):
        with make_job(tmp_path, n_cells=4, range_size=4) as table:
            # Drain: shrinking grants may split the range, so claim until
            # w1 holds every cell.
            while table.claim("w1", now=100.0) is not None:
                pass
            assert table.claim("w2", now=100.0) is None

    def test_heartbeat_exactly_at_timeout_keeps_the_lease(self, tmp_path):
        # lease_timeout=10, claimed at t=100 → expires at t=110.  A claim at
        # exactly t=110 must NOT reclaim (strict <); at t=110.001 it must.
        with make_job(tmp_path, n_cells=1, range_size=1,
                      lease_timeout=10.0) as table:
            grant = table.claim("w1", now=100.0)
            assert grant is not None and grant.lease_expires == 110.0
            assert table.claim("w2", now=110.0) is None
            stolen = table.claim("w2", now=110.001)
            assert stolen is not None
            assert stolen.start == grant.start
            assert stolen.epoch == grant.epoch + 1

    def test_double_reclaim_only_one_claimant_wins(self, tmp_path):
        with make_job(tmp_path, n_cells=1, range_size=1,
                      lease_timeout=10.0) as table:
            table.claim("w1", now=100.0)
            # Two workers race for the single expired range: the first
            # claim reclaims and re-leases it, the second finds nothing.
            first = table.claim("w2", now=200.0)
            second = table.claim("w3", now=200.0)
            assert first is not None and first.worker == "w2"
            assert second is None
            assert table.status(now=200.0).reclaims == 1

    def test_zombie_worker_is_fenced_by_epoch(self, tmp_path):
        with make_job(tmp_path, n_cells=1, range_size=1,
                      lease_timeout=10.0) as table:
            zombie = table.claim("w1", now=100.0)
            stolen = table.claim("w2", now=150.0)
            assert stolen is not None
            # The zombie's lease was reclaimed: every guarded call it makes
            # must fail and must not corrupt the new owner's progress.
            assert not table.renew(zombie, now=150.0)
            assert not table.record_cell_done(zombie, now=150.0)
            assert not table.complete_range(zombie)
            assert table.record_cell_done(stolen, now=151.0)
            status = table.status(now=151.0)
            assert status.completed_cells == 1
            assert table.complete_range(stolen)
            assert table.status(now=151.0).complete

    def test_renew_extends_the_lease(self, tmp_path):
        with make_job(tmp_path, n_cells=1, range_size=1,
                      lease_timeout=10.0) as table:
            grant = table.claim("w1", now=100.0)
            assert table.renew(grant, now=109.0)  # expires 119 now
            assert table.claim("w2", now=112.0) is None

    def test_reclaimed_range_resets_progress(self, tmp_path):
        with make_job(tmp_path, n_cells=1, range_size=1,
                      lease_timeout=10.0) as table:
            grant = table.claim("w1", now=100.0)
            assert table.record_cell_done(grant, now=101.0)
            assert table.status(now=101.0).completed_cells == 1
            stolen = table.claim("w2", now=200.0)
            assert stolen is not None
            # The new owner restarts the range: the zombie's partial count
            # must not double-count once the range completes.
            assert table.status(now=200.0).completed_cells == 0

    def test_shrinking_grants_near_the_tail(self, tmp_path):
        with make_job(tmp_path, n_cells=8, range_size=8,
                      lease_timeout=10.0) as table:
            table.register_worker("w1", "s1")
            table.register_worker("w2", "s2")
            grant = table.claim("w1", now=0.0)
            # 8 pending cells over 2 active workers: cap = ceil(8/4) = 2,
            # so the 8-cell range is split rather than granted whole.
            assert grant is not None and grant.count == 2
            other = table.claim("w2", now=0.0)
            assert other is not None and other.start == 2
            status = table.status(now=0.0)
            assert status.pending_cells == 8 - grant.count - other.count

    def test_status_counts_cells_and_ranges(self, tmp_path):
        with make_job(tmp_path, n_cells=8, range_size=4,
                      lease_timeout=10.0) as table:
            status = table.status(now=0.0)
            assert status.total_cells == 8 and status.pending_cells == 8
            assert not status.complete
            grant = table.claim("w1", now=0.0)
            assert table.record_cell_done(grant, now=1.0)
            status = table.status(now=1.0)
            assert status.completed_cells == 1
            assert status.leased_cells == grant.count - 1
            # one record per flush counts every cell of the flush
            assert table.record_cell_done(grant, grant.count - 1, now=2.0)
            status = table.status(now=2.0)
            assert (status.completed_cells, status.leased_cells) == (
                grant.count, 0)

    def test_worker_registration_records_store_paths(self, tmp_path):
        with make_job(tmp_path) as table:
            table.register_worker("w1", tmp_path / "s1")
            table.register_worker("w2", tmp_path / "s2")
            table.register_worker("w1", tmp_path / "s1b")  # re-register
            assert table.worker_stores() == [tmp_path / "s1b",
                                             tmp_path / "s2"]


# --------------------------------------------------------------------------- #
# store merge
# --------------------------------------------------------------------------- #
def store_with_results(root, seeds, **overrides) -> list[str]:
    keys = []
    with ResultStore(root) as store:
        for seed in seeds:
            scenario = quick_scenario(seed=seed, **overrides)
            store.put(run_scenario(scenario))
            keys.append(scenario_cell_key(scenario))
    return keys


def with_scenario_summary(scenario: Scenario):
    """An edit that gives a payload the ``result.scenario`` summary payloads
    carried before the scenario was stored once (crash times spelled as the
    caller spelled them)."""
    summary = {
        "name": scenario.name, "algorithm": scenario.algorithm,
        "n_processes": scenario.n_processes, "seed": scenario.seed,
        "crashes": {str(k): v for k, v in dict(scenario.crashes).items()},
        "loss": scenario.loss.describe(), "delay": scenario.delay.describe(),
        "channel_type": scenario.channel_type,
        "detector_setup": scenario.detector_setup,
        "workload": scenario.workload, "fd_policy": scenario.fd_policy.value,
    }

    def edit(payload):
        payload["result"] = {"scenario": summary, **payload["result"]}
    return edit


def stored_payload_bytes(root, cell_key: str) -> bytes:
    """The stored payload JSON of one cell, its ``created_at`` removed."""
    with closing(sqlite3.connect(root / "index.sqlite")) as db:
        [(packed,)] = db.execute(
            "SELECT payload FROM payloads WHERE cell_key = ?", (cell_key,))
    payload = json.loads(zlib.decompress(packed))
    del payload["created_at"]
    return json.dumps(payload, separators=(",", ":")).encode()


class TestMergeStores:
    def test_disjoint_union(self, tmp_path):
        keys_a = store_with_results(tmp_path / "a", [0, 1])
        keys_b = store_with_results(tmp_path / "b", [2])
        with ResultStore(tmp_path / "a") as dest, \
                ResultStore(tmp_path / "b") as source:
            stats = merge_stores(dest, [source])
            assert stats.copied == 1 and stats.skipped == 0
            assert [row.cell_key for row in dest.query()] == keys_a + keys_b
            # Copied rows are loadable and keep their provenance columns.
            row = dest.get(keys_b[0], count=False)
            assert row is not None and row.wall_time is not None
            verdict = dest.load(keys_b[0])["result"]["verdict"]
            assert verdict["validity"] and not verdict["violations"]

    def test_merge_is_idempotent(self, tmp_path):
        store_with_results(tmp_path / "a", [0, 1])
        store_with_results(tmp_path / "b", [1, 2])
        for expected_copied in (1, 0):  # second merge copies nothing
            with ResultStore(tmp_path / "a") as dest, \
                    ResultStore(tmp_path / "b") as source:
                stats = merge_stores(dest, [source])
                assert stats.copied == expected_copied

    def test_overlap_with_different_created_at_is_not_a_conflict(
            self, tmp_path):
        # The same cell executed twice stores blobs differing only in the
        # volatile created_at stamp — semantically equal, merge skips it.
        store_with_results(tmp_path / "a", [0])
        store_with_results(tmp_path / "b", [0])
        with ResultStore(tmp_path / "a") as dest, \
                ResultStore(tmp_path / "b") as source:
            stats = merge_stores(dest, [source])
            assert stats.copied == 0 and stats.skipped == 1

    def test_semantic_conflict_fails_loudly(self, tmp_path):
        [key] = store_with_results(tmp_path / "a", [0])
        store_with_results(tmp_path / "b", [0])
        # Tamper with one store's payload: same cell key, different content
        # — exactly what a determinism bug would produce.
        tamper_with_payload(tmp_path / "b", key)
        with ResultStore(tmp_path / "a") as dest, \
                ResultStore(tmp_path / "b") as source:
            with pytest.raises(MergeConflictError, match=key[:12]):
                merge_stores(dest, [source])

    def test_a_payload_with_the_old_scenario_summary_merges(self, tmp_path):
        # A store written before the scenario was stored once still carries
        # a `result.scenario` summary: not a conflict with one written after.
        scenario = quick_scenario(crashes={1: 2})
        [key] = store_with_results(tmp_path / "new", [0], crashes={1: 2})
        store_with_results(tmp_path / "old", [0], crashes={1: 2})
        rewrite_payload(tmp_path / "old", key, with_scenario_summary(scenario))
        for dest_name, source_name in (("new", "old"), ("old", "new")):
            with ResultStore(tmp_path / dest_name) as dest, \
                    ResultStore(tmp_path / source_name) as source:
                stats = merge_stores(dest, [source])
                assert (stats.copied, stats.skipped) == (0, 1)
        # A real difference beside the summary still refuses the merge.
        tamper_with_payload(tmp_path / "old", key)
        with ResultStore(tmp_path / "new") as dest, \
                ResultStore(tmp_path / "old") as source:
            with pytest.raises(MergeConflictError, match=key[:12]):
                merge_stores(dest, [source])

    def test_self_merge_is_rejected(self, tmp_path):
        store_with_results(tmp_path / "a", [0])
        with ResultStore(tmp_path / "a") as handle:
            with pytest.raises(StoreError, match="into itself"):
                merge_stores(handle, [handle])

    def test_campaign_manifests_and_artifacts_merge(self, tmp_path):
        run_campaign(tmp_path / "a", quick_suite(seeds=1), name="camp-a")
        run_campaign(tmp_path / "b", quick_suite(seeds=1), name="camp-b")
        stats = merge_store_paths(tmp_path / "a", [tmp_path / "b"])
        assert stats.campaigns_added == 1
        with ResultStore(tmp_path / "a", create=False) as dest:
            assert {info.name for info in dest.campaigns()} == {
                "camp-a", "camp-b"}
            # Both campaigns render complete from the merged store.
            for name in ("camp-a", "camp-b"):
                artifact = campaign_table(dest, name)
                assert "2/2" in artifact.name

    def test_merge_rejects_conflicting_campaign_manifest(self, tmp_path):
        run_campaign(tmp_path / "a", quick_suite(seeds=1), name="camp")
        run_campaign(tmp_path / "b", quick_suite(seeds=2), name="camp")
        with pytest.raises(StoreError, match="different cell list"):
            merge_store_paths(tmp_path / "a", [tmp_path / "b"])

    def test_missing_source_store_fails(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            merge_store_paths(tmp_path / "dest", [tmp_path / "absent"])


# --------------------------------------------------------------------------- #
# worker + coordinator
# --------------------------------------------------------------------------- #
class TestWorkerAndCoordinator:
    def run_distributed(self, tmp_path, *, n_workers=2, suite=None,
                        name="dist"):
        suite = suite or quick_suite(seeds=2)
        coordinator = Coordinator(tmp_path / "job", suite, name=name,
                                  lease_timeout=30.0, range_size=2)
        coordinator.prepare()
        reports = {}

        def work(index: int) -> None:
            reports[index] = Worker(
                tmp_path / "job", worker_id=f"w{index}",
                poll_interval=0.02,
            ).run()

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(n_workers)]
        for thread in threads:
            thread.start()
        report = coordinator.serve(tmp_path / "merged", poll_interval=0.05,
                                   timeout=120.0)
        for thread in threads:
            thread.join()
        return report, reports

    def test_distributed_run_completes_and_merges(self, tmp_path):
        report, worker_reports = self.run_distributed(tmp_path)
        assert report.status.complete
        assert report.merge.copied == 4
        executed = sum(r.cells_executed for r in worker_reports.values())
        assert executed == 4  # every cell executed exactly once
        with ResultStore(tmp_path / "merged", create=False) as store:
            info = store.campaign_info("dist")
            assert info is not None and info.complete

    def test_distributed_aggregates_match_single_shot(self, tmp_path):
        report, _reports = self.run_distributed(tmp_path,
                                                suite=quick_suite(seeds=3))
        assert report.status.complete
        run_campaign(tmp_path / "single", quick_suite(seeds=3), name="dist")
        with ResultStore(tmp_path / "merged", create=False) as merged, \
                ResultStore(tmp_path / "single", create=False) as single:
            distributed = campaign_table(merged, "dist")
            reference = campaign_table(single, "dist")
            assert distributed.rows == reference.rows

    def test_serve_is_idempotent_after_completion(self, tmp_path):
        suite = quick_suite(seeds=2)
        self.run_distributed(tmp_path, suite=suite)
        # Coordinator death after completion: re-serving the same workdir
        # re-merges (0 copies) and re-registers the identical manifest.
        coordinator = Coordinator(tmp_path / "job", suite, name="dist")
        report = coordinator.serve(tmp_path / "merged", poll_interval=0.05,
                                   timeout=30.0)
        assert report.status.complete and report.merge.copied == 0

    def test_worker_without_job_times_out(self, tmp_path):
        worker = Worker(tmp_path / "job", worker_id="w0",
                        poll_interval=0.02, wait_for_job=0.1)
        with pytest.raises(LeaseError, match="no distributed job"):
            worker.run()

    def test_wait_times_out_loudly(self, tmp_path):
        coordinator = Coordinator(tmp_path / "job", quick_suite(seeds=1),
                                  name="stuck")
        coordinator.prepare()  # no workers ever start
        with pytest.raises(LeaseError, match="did not complete"):
            coordinator.wait(poll_interval=0.02, timeout=0.1)

    def test_a_grant_is_one_put_per_cell_and_one_record_per_flush(
            self, tmp_path, monkeypatch):
        """``claim``, one uncommitted ``put_many`` per executed cell, one
        store commit, one ``record_cell_done`` counting them all (the
        heartbeat), ``complete_range``: each lease call one transaction,
        nothing written outside one, and no ``renew``."""
        # 8 cells: a lone worker's first grant is a whole range of 4
        Coordinator(tmp_path / "job", quick_suite(seeds=4), name="dist",
                    range_size=4).prepare()
        calls = []

        def spy(owner, name, summary):
            real = getattr(owner, name)

            def wrapped(self, *args, **kwargs):
                calls.append((name, summary(*args, **kwargs)))
                return real(self, *args, **kwargs)
            monkeypatch.setattr(owner, name, wrapped)

        spy(LeaseTable, "claim", lambda worker, **_: worker)
        spy(LeaseTable, "renew", lambda grant, **_: None)
        spy(LeaseTable, "record_cell_done", lambda grant, count=1, **_: count)
        spy(LeaseTable, "complete_range", lambda grant: None)
        spy(ResultStore, "put_many",
            lambda cells, commit=True, **_: (len(cells), commit))
        spy(ResultStore, "commit", lambda: None)
        statements = trace_statements(monkeypatch, "leases.sqlite")
        report = Worker(tmp_path / "job", worker_id="w0",
                        poll_interval=0.02).run(max_ranges=1)
        assert (report.cells_executed, report.ranges_completed) == (4, 1)
        assert calls == ([("claim", "w0")] + [("put_many", (1, False))] * 4
                         + [("commit", None), ("record_cell_done", 4),
                            ("complete_range", None)])
        lease_writes = [sql.split()[0] for sql in writes(statements)]
        # register_worker, then the three calls: begin, update(s), commit
        assert lease_writes.count("BEGIN") == lease_writes.count("COMMIT") == 4
        depth = 0
        for word in lease_writes:
            depth += {"BEGIN": 1, "COMMIT": -1}.get(word, 0)
            assert word in ("BEGIN", "COMMIT") or depth == 1, lease_writes

    def test_worker_skips_cells_already_in_its_store(self, tmp_path):
        suite = quick_suite(seeds=2)
        coordinator = Coordinator(tmp_path / "job", suite, name="dist",
                                  range_size=2)
        coordinator.prepare()
        # Pre-populate the worker's store with the full suite.
        run_campaign(tmp_path / "prefilled", suite, name="warm")
        report = Worker(tmp_path / "job", worker_id="w0",
                        store_root=tmp_path / "prefilled",
                        poll_interval=0.02).run()
        assert report.cells_executed == 0
        assert report.cells_cached == 4

    def test_a_cell_stores_the_same_payload_on_either_path(self, tmp_path):
        # The worker rebuilds the cell from its lease row with
        # scenario_from_dict (crash time 2.0); the campaign packs the
        # caller's scenario (crash time 2).
        scenario = quick_scenario(crashes={1: 2})
        key = scenario_cell_key(scenario)
        run_campaign(tmp_path / "local", [scenario], name="c")
        Coordinator(tmp_path / "job", [scenario], name="c").prepare()
        report = Worker(tmp_path / "job", worker_id="w0",
                        poll_interval=0.02).run()
        assert report.cells_executed == 1
        assert (stored_payload_bytes(report.store_root, key)
                == stored_payload_bytes(tmp_path / "local", key))

    def test_a_cell_scheduled_twice_in_one_flush_runs_once(self, tmp_path):
        # A lone worker's first grant is positions 0 and 1 (the tail rule
        # caps it at ceil(4 / 2)): the second finds the first one's result
        # in the store, not committed yet, and counts as cached.
        scenarios = [quick_scenario(), quick_scenario(),
                     quick_scenario(seed=1), quick_scenario(seed=2)]
        Coordinator(tmp_path / "job", scenarios, name="dist",
                    range_size=4).prepare()
        report = Worker(tmp_path / "job", worker_id="w0",
                        poll_interval=0.02).run()
        assert (report.cells_executed, report.cells_cached) == (3, 1)
        with ResultStore(report.store_root, create=False) as store:
            assert len(store) == 3


# --------------------------------------------------------------------------- #
# an observed job: trace tree and alert rules
# --------------------------------------------------------------------------- #
class TestObservedJob:
    @pytest.fixture(autouse=True)
    def sink(self):
        """Obs on, every record of the job in one in-memory timeline."""
        obs.reset()
        obs.enable()
        stream = io.StringIO()
        obs.set_timeline(obs.Timeline(stream))
        yield stream
        obs.reset()
        obs.set_timeline(None)

    def test_traced_job_spans_nest_on_raw_timestamps(self, tmp_path, sink):
        coordinator = Coordinator(tmp_path / "job", quick_suite(seeds=2),
                                  name="traced", lease_timeout=30.0,
                                  range_size=2)
        coordinator.prepare()
        threads = [threading.Thread(target=Worker(
            tmp_path / "job", worker_id=f"w{index}", poll_interval=0.02,
        ).run) for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        coordinator.serve(tmp_path / "merged", poll_interval=0.05,
                          timeout=120.0)
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert "anchor" not in {record["kind"] for record in records}
        tree = spans.build_tree(
            [record for record in records if record["kind"] == "span"])
        assert not tree.orphans
        assert [root.name for root in tree.roots] == ["job"]
        assert set(tree.procs) == {"coordinator", "w0", "w1"}
        assert len(tree.cell_spans()) == 4
        # One host, one clock: every child lies inside its parent as
        # recorded, with no correction applied.
        for node in tree.by_id.values():
            for child in node.children:
                assert node.start_unix <= child.start_unix
                assert child.end_unix <= node.end_unix

    def test_a_failed_worker_cell_fires_the_default_rules(self, tmp_path,
                                                          monkeypatch):
        Coordinator(tmp_path / "job", quick_suite(seeds=2), name="failing",
                    range_size=2).prepare()
        calls = []

        def first_cell_raises(scenario):
            calls.append(scenario)
            if len(calls) == 1:
                raise RuntimeError("cell exploded")
            return run_scenario(scenario)

        monkeypatch.setattr(worker_module, "run_scenario", first_cell_raises)
        report = Worker(tmp_path / "job", worker_id="w0").run(max_ranges=1)
        assert len(report.errors) == 1
        assert (report.ranges_completed, report.ranges_abandoned) == (1, 0)
        firing = {result.rule.name
                  for result in obs.evaluate(obs.snapshot()).firing}
        assert firing == {"worker-cell-errors"}


# --------------------------------------------------------------------------- #
# concurrent store access
# --------------------------------------------------------------------------- #
def _put_worker(root, seeds, barrier, errors) -> None:
    """Subprocess body: open an own handle, write one cell per seed."""
    try:
        with ResultStore(root) as store:
            barrier.wait(timeout=30)  # maximise write overlap
            for seed in seeds:
                store.put(run_scenario(quick_scenario(seed=seed)))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        errors.put(f"{type(exc).__name__}: {exc}")


class TestConcurrentStoreAccess:
    def test_two_processes_writing_disjoint_cells_do_not_lock(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context()
        root = tmp_path / "store"
        ResultStore(root).close()  # schema init up front
        barrier = context.Barrier(2)
        errors = context.Queue()
        processes = [
            context.Process(target=_put_worker,
                            args=(root, seeds, barrier, errors))
            for seeds in ([0, 1, 2, 3], [4, 5, 6, 7])
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        failures = []
        while not errors.empty():
            failures.append(errors.get())
        # The old deferred-transaction handles raised "database is locked"
        # here; IMMEDIATE transactions + busy_timeout must not.
        assert not failures, failures
        assert all(process.exitcode == 0 for process in processes)
        with ResultStore(root, create=False) as store:
            assert len(store) == 8

    def test_two_handles_in_one_process_interleave_writes(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as first, ResultStore(root) as second:
            for seed, handle in enumerate([first, second] * 3):
                handle.put(run_scenario(quick_scenario(seed=seed)))
            assert len(first) == len(second) == 6


# --------------------------------------------------------------------------- #
# planning
# --------------------------------------------------------------------------- #
class TestPlanCampaign:
    def test_plan_without_store_uses_assumed_basis(self):
        plan = plan_campaign(quick_suite(seeds=2),
                             default_cell_seconds=2.0,
                             target_seconds=4.0)
        assert plan.estimate_basis == "assumed"
        assert plan.pending_cells == 4
        assert plan.est_sequential_seconds == pytest.approx(8.0)
        assert plan.suggested_workers == 2

    def test_plan_uses_stored_suite_timings(self, tmp_path):
        run_campaign(tmp_path / "store", quick_suite(seeds=1), name="warm")
        plan = plan_campaign(quick_suite(seeds=2), tmp_path / "store")
        assert plan.estimate_basis == "suite"
        assert plan.stored_cells == 2 and plan.pending_cells == 2
        assert plan.timed_cells == 2
        assert plan.mean_cell_seconds > 0

    def test_fully_stored_suite_needs_no_workers(self, tmp_path):
        run_campaign(tmp_path / "store", quick_suite(seeds=1), name="warm")
        plan = plan_campaign(quick_suite(seeds=1), tmp_path / "store")
        assert plan.pending_cells == 0
        assert plan.suggested_workers is None
        assert "no workers needed" in plan.describe()

    def test_store_basis_when_suite_cells_are_unknown(self, tmp_path):
        run_campaign(tmp_path / "store", quick_suite(seeds=1), name="warm")
        other = ScenarioSuite("other").add(
            quick_scenario(seed=99)).with_seeds(1)
        plan = plan_campaign(other, tmp_path / "store")
        assert plan.estimate_basis == "store"
        assert plan.timed_cells == 2

    def test_plan_table_renders(self):
        artifact = plan_campaign(quick_suite(seeds=1),
                                 worker_counts=(1, 2)).table()
        assert artifact.headers == ["workers", "est wall s", "speedup"]
        assert len(artifact.rows) == 2


# --------------------------------------------------------------------------- #
# store schema v2 satellites (wall_time + migration)
# --------------------------------------------------------------------------- #
class TestWallTimeAndMigration:
    def test_put_records_wall_time(self, tmp_path):
        result = run_scenario(quick_scenario())
        assert result.wall_time is not None and result.wall_time > 0
        with ResultStore(tmp_path / "store") as store:
            row = store.put(result)
            assert row.wall_time == pytest.approx(result.wall_time)

    def test_wall_time_stays_out_of_the_blob(self, tmp_path):
        # Blob determinism is what makes merge conflict detection sound, so
        # the volatile timing must live in the index only.
        scenario = quick_scenario()
        with ResultStore(tmp_path / "store") as store:
            store.put(run_scenario(scenario))
            payload = store.load(scenario_cell_key(scenario))
            assert "wall_time" not in json.dumps(
                {k: v for k, v in payload["result"].items() if k != "schedule"}
            )

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_store_migrates_in_place(self, tmp_path, version):
        root = tmp_path / "store"
        scenario = quick_scenario()
        key = scenario_cell_key(scenario)
        with ResultStore(root) as store:
            written = store.put(run_scenario(scenario))
            payload = store.load(key)
        downgrade_store(root, version)
        with ResultStore(root) as store:
            # Old rows read tolerantly: v1 timing unknown, everything else
            # intact, the payload as written; new writes carry timings.
            row = store.get(key, count=False)
            assert row == dataclasses.replace(
                written, wall_time=None if version == 1 else written.wall_time)
            assert store.load(key) == payload
            other = quick_scenario(seed=5)
            assert store.put(run_scenario(other)).wall_time is not None
        assert not (root / "blobs").exists()
        with closing(sqlite3.connect(root / "index.sqlite")) as db:
            recorded = db.execute("SELECT value FROM meta WHERE key = "
                                  "'schema_version'").fetchone()[0]
        assert recorded == "3"

    def test_migration_drops_a_row_whose_payload_file_vanished(self, tmp_path):
        # What gc used to repair: the cell is recomputed, not an error.
        root = tmp_path / "store"
        kept, lost = store_with_results(root, [0, 1])
        downgrade_store(root, 2)
        (root / "blobs" / lost[:2] / f"{lost}.json.z").unlink()
        with ResultStore(root) as store:
            assert [row.cell_key for row in store.query()] == [kept]
            assert store.load(kept)["cell_key"] == kept

    def test_files_left_by_a_death_after_commit_are_swept(self, tmp_path):
        root = tmp_path / "store"
        [key] = store_with_results(root, [0])
        leftover = root / "blobs" / key[:2] / f"{key}.json.z"
        leftover.parent.mkdir(parents=True)
        leftover.write_bytes(b"stale")
        with ResultStore(root) as store:
            assert store.load(key)["cell_key"] == key
        assert not (root / "blobs").exists()

    def test_future_schema_still_rejected(self, tmp_path):
        from repro.campaigns import SchemaMismatchError

        root = tmp_path / "store"
        ResultStore(root).close()
        with sqlite3.connect(root / "index.sqlite") as db:
            db.execute("UPDATE meta SET value = '99' "
                       "WHERE key = 'schema_version'")
        with pytest.raises(SchemaMismatchError):
            ResultStore(root)
