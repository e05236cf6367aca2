"""Fault injection at the result store's one write boundary.

A cell, a ``put_many`` batch, a merged source and a schema migration are
each one SQLite transaction, so the only place a fault can land is a
statement of that transaction.  ``sqlite3.Connection`` instances take no
attribute patches; the tests hand the store a scripted subclass through
``sqlite3.connect(..., factory=...)`` and fail it after k statements, for
every k, once with the error a full disk raises and once with a
``BaseException`` standing in for SIGKILL.  The handle is then abandoned the
way a dead process leaves it (no ``close()`` bookkeeping) and the store is
reopened: it must hold whole transactions only, and resumed or re-merged
campaigns must render byte-identical tables.
"""

from __future__ import annotations

import functools
import shutil
import sqlite3
from contextlib import closing

import pytest

from helpers import (Fault, Killed, disk_full, downgrade_store, fault_arming,
                     tamper_with_payload)
from repro.campaigns import (
    Campaign,
    MergeConflictError,
    ResultStore,
    campaign_table,
    merge_store_paths,
    scenario_cell_key,
)
from repro.experiments.config import Scenario
from repro.experiments.runner import run_scenario


@pytest.fixture
def arm(monkeypatch):
    return fault_arming(monkeypatch, ResultStore)


def abandon(store: ResultStore) -> None:
    """What a dead process leaves: the file handle gone, nothing flushed."""
    store._db.close()


def scenario(seed: int) -> Scenario:
    return Scenario(name="fault-test", algorithm="algorithm2", n_processes=3,
                    seed=seed, max_time=60.0, stop_when_quiescent=True,
                    drain_grace_period=3.0)


def assert_whole_cells_only(store: ResultStore) -> None:
    """No index row without a loadable payload, no payload without a row."""
    keys = [row.cell_key for row in store.query()]
    for key in keys:
        assert store.load(key)["cell_key"] == key
    payload_keys = [key for (key,) in store._db.execute(
        "SELECT cell_key FROM payloads ORDER BY rowid")]
    assert sorted(payload_keys) == sorted(keys)
    assert store.gc().dropped_results == 0  # nothing for gc to repair


FAULTS = [pytest.param(disk_full, id="disk-full"),
          pytest.param(Killed, id="killed")]


# --------------------------------------------------------------------------- #
# (a) put_many dying mid-batch
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("make_error", FAULTS)
def test_put_many_interrupted_at_every_statement(tmp_path, arm, make_error):
    cells = [scenario(seed) for seed in range(16)]  # two flushes of 8
    second_batch = [scenario_cell_key(cell) for cell in cells[8:]]
    with ResultStore(tmp_path / "clean") as clean:
        counting = arm("put_many", 2, Fault())
        Campaign(clean, cells, name="c").run()
        clean_table = campaign_table(clean, "c")
    statements = counting.seen
    assert statements >= 2  # rows, payloads

    for k in range(statements + 1):
        root = tmp_path / f"store-{k}"
        store = ResultStore(root)
        arm("put_many", 2, Fault(make_error(), after=k))
        if k < statements:
            with pytest.raises(type(make_error())):
                Campaign(store, cells, name="c").run()
        else:  # the fault never fires: a clean run
            assert Campaign(store, cells, name="c").run().executed == 16
        abandon(store)

        with ResultStore(root) as store:
            held = [row.cell_key for row in store.query()]
            if k < statements:
                # None of the interrupted batch landed, all of the first did.
                assert len(held) == 8 and not set(held) & set(second_batch)
            assert_whole_cells_only(store)
            report = Campaign(store, cells, name="c").run(resume=True)
            assert report.executed == 16 - len(held)
            assert report.cached == len(held)
            assert campaign_table(store, "c") == clean_table
            assert campaign_table(store, "c").render() == clean_table.render()


@pytest.mark.parametrize("make_error", FAULTS)
def test_put_many_of_packed_cells_at_every_statement(tmp_path, arm, make_error):
    """``put_many`` called directly, as ``put`` and the distributed worker
    call it: two batches of cells packed beforehand."""
    results = [run_scenario(scenario(seed)) for seed in range(4)]
    batch = [ResultStore.pack(result) for result in results]
    keys = [scenario_cell_key(result.scenario) for result in results]
    with ResultStore(tmp_path / "clean") as clean:
        counting = arm("put_many", 2, Fault())
        clean.put_many(batch[:2])
        clean.put_many(batch[2:])
    assert counting.seen >= 2

    for k in range(counting.seen):
        root = tmp_path / f"store-{k}"
        store = ResultStore(root)
        arm("put_many", 2, Fault(make_error(), after=k))
        store.put_many(batch[:2])
        with pytest.raises(type(make_error())):
            store.put_many(batch[2:])
        abandon(store)

        with ResultStore(root) as store:
            assert [row.cell_key for row in store.query()] == keys[:2]
            assert_whole_cells_only(store)
            store.put_many(batch[2:])  # the retry lands whole
            assert [row.cell_key for row in store.query()] == keys
            assert_whole_cells_only(store)


@pytest.mark.parametrize("make_error", FAULTS)
def test_uncommitted_batches_fall_with_the_batch_that_fails(
        tmp_path, arm, make_error):
    """What ``put_many(commit=False)`` left open goes down with the next
    batch that fails, at any of its statements: the store holds its last
    commit, whole, and the retry lands everything."""
    cells = [ResultStore.pack(run_scenario(scenario(seed))) for seed in range(3)]
    keys = [cell.cell_key for cell in cells]
    with ResultStore(tmp_path / "clean") as clean:
        counting = arm("put_many", 1, Fault())
        clean.put_many(cells[2:], commit=False)
    assert counting.seen >= 2

    for k in range(counting.seen):
        root = tmp_path / f"store-{k}"
        store = ResultStore(root)
        store.put_many(cells[:1])
        store.put_many(cells[1:2], commit=False)
        arm("put_many", 1, Fault(make_error(), after=k))
        with pytest.raises(type(make_error())):
            store.put_many(cells[2:], commit=False)
        store.commit()  # a caller that lives on commits nothing of it
        abandon(store)

        with ResultStore(root) as store:
            assert [row.cell_key for row in store.query()] == keys[:1]
            assert_whole_cells_only(store)
            store.put_many(cells[1:], commit=False)
            store.commit()
            assert sorted(row.cell_key for row in store.query()) == \
                sorted(keys)
            assert_whole_cells_only(store)


# --------------------------------------------------------------------------- #
# (b) merge_stores failing mid-source
# --------------------------------------------------------------------------- #
@pytest.fixture
def shards(tmp_path):
    """Three source stores and a destination that overlaps the second."""
    seeds = {"s1": [0, 1], "s2": [2, 3, 4], "s3": [5], "dest": [2]}
    for name, shard_seeds in seeds.items():
        with ResultStore(tmp_path / name) as store:
            store.put_many([ResultStore.pack(run_scenario(scenario(s)))
                            for s in shard_seeds])
    return tmp_path


def shard_keys(*seeds: int) -> set[str]:
    return {scenario_cell_key(scenario(seed)) for seed in seeds}


def merge_shards(root, dest_name: str):
    sources = [root / name for name in ("s1", "s2", "s3")]
    return merge_store_paths(root / dest_name, sources)


@pytest.mark.parametrize("make_error", FAULTS)
def test_merge_interrupted_at_every_statement(shards, arm, make_error):
    shutil.copytree(shards / "dest", shards / "clean")
    counting = arm("adopt", 2, Fault())
    clean = merge_shards(shards, "clean")
    assert (clean.copied, clean.skipped) == (5, 1)
    statements = counting.seen
    assert statements >= 8  # attach, begin, 3 selects, 3 inserts, detach

    for k in range(statements):
        dest_name = f"dest-{k}"
        shutil.copytree(shards / "dest", shards / dest_name)
        arm("adopt", 2, Fault(make_error(), after=k))
        with pytest.raises(type(make_error())):
            merge_shards(shards, dest_name)
        with ResultStore(shards / dest_name) as dest:
            # s1 (merged before the fault) is kept; of s2, whatever k, the
            # store holds all of it or none of it; s3 was never reached.
            held = {row.cell_key for row in dest.query()}
            assert held in (shard_keys(0, 1, 2), shard_keys(0, 1, 2, 3, 4))
            assert_whole_cells_only(dest)
        again = merge_shards(shards, dest_name)
        assert again.copied == 5 - (len(held) - 1)
        with ResultStore(shards / dest_name) as dest:
            assert {row.cell_key for row in dest.query()} == shard_keys(*range(6))
            assert_whole_cells_only(dest)


def test_conflict_raises_before_any_row_of_its_source_lands(shards):
    key = scenario_cell_key(scenario(2))
    tamper_with_payload(shards / "dest", key)
    with pytest.raises(MergeConflictError, match=key[:12]):
        merge_shards(shards, "dest")
    with ResultStore(shards / "dest") as dest:
        # s1 was merged; nothing of s2, whose cells 3 and 4 dest lacks.
        assert {row.cell_key for row in dest.query()} == shard_keys(0, 1, 2)
        assert_whole_cells_only(dest)


# --------------------------------------------------------------------------- #
# (c) migration of a version-2 store interrupted before commit
# --------------------------------------------------------------------------- #
def files_under(root) -> dict[str, bytes]:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*.json.z"))}


@pytest.mark.parametrize("make_error", FAULTS)
def test_migration_interrupted_at_every_statement(tmp_path, arm, make_error):
    root = tmp_path / "worker"
    cells = [scenario(seed) for seed in range(4)]
    with ResultStore(root) as store:
        Campaign(store, cells, name="c").run()
        table = campaign_table(store, "c")
    downgrade_store(root, 2)
    files = files_under(root)
    assert len(files) == 4

    shutil.copytree(root, tmp_path / "dry-run")
    counting = arm("_migrate_blob_files", 1, Fault())
    ResultStore(tmp_path / "dry-run").close()
    statements = counting.seen
    assert statements >= 8  # begin, table_info, select, 4 inserts, stamp

    for k in range(statements):
        arm("_migrate_blob_files", 1, Fault(make_error(), after=k))
        with pytest.raises(type(make_error())):
            ResultStore(root)
        # Still a version-2 store, its files intact.
        with closing(sqlite3.connect(root / "index.sqlite")) as db:
            assert db.execute("SELECT value FROM meta WHERE key = "
                              "'schema_version'").fetchone() == ("2",)
            assert db.execute("SELECT COUNT(*) FROM payloads").fetchone() == (0,)
            assert db.execute("SELECT COUNT(*) FROM results").fetchone() == (4,)
        assert files_under(root) == files

    # A version-2 worker store merges into a version-3 destination (opening
    # it is what migrates it) and renders the table it rendered before.
    stats = merge_store_paths(tmp_path / "dest", [root])
    assert (stats.copied, stats.campaigns_added) == (4, 1)
    assert not (root / "blobs").exists()
    for migrated in (root, tmp_path / "dest"):
        with ResultStore(migrated, create=False) as store:
            assert campaign_table(store, "c") == table
            assert_whole_cells_only(store)


# --------------------------------------------------------------------------- #
# readers while a campaign writes (`status --watch`, `campaign query`)
# --------------------------------------------------------------------------- #
class WatchedConnection(sqlite3.Connection):
    """Calls ``in_write`` after every statement of an open write transaction,
    that is, while rows the statement wrote are still uncommitted."""

    in_write = None

    def _watched(self, run, *args):
        cursor = run(*args)
        if self.in_write is not None and self.in_transaction:
            self.in_write()
        return cursor

    def execute(self, *args):
        return self._watched(super().execute, *args)

    def executemany(self, *args):
        return self._watched(super().executemany, *args)


def test_second_handle_reads_while_a_campaign_writes(tmp_path, monkeypatch):
    monkeypatch.setattr(sqlite3, "connect", functools.partial(
        sqlite3.connect, factory=WatchedConnection))
    cells = [scenario(seed) for seed in range(24)]  # three flushes of 8
    observed: list[tuple[str, int]] = []

    with ResultStore(tmp_path / "store") as writer, \
            ResultStore(tmp_path / "store") as reader:
        def observe(moment: str) -> None:
            # WAL readers neither block on the writer nor see half a cell:
            # every row `query` returns has its payload, and the counts only
            # ever show whole committed batches.
            rows = reader.query(campaign="c")
            info = reader.campaign_info("c")
            assert len(rows) == (info.done if info is not None else 0)
            for row in rows:
                assert reader.load(row.cell_key)["cell_key"] == row.cell_key
            observed.append((moment, len(rows)))

        writer._db.in_write = lambda: observe("mid-transaction")
        Campaign(writer, cells, name="c").run(
            progress=lambda done, _total, _item: observe(f"after {done}"))
        writer._db.in_write = None

    # Inside the manifest's and each flush's transaction the batch being
    # written is invisible to the reader, the committed ones are all there.
    mid = [count for moment, count in observed if moment == "mid-transaction"]
    assert mid == sorted(mid) and set(mid) == {0, 8, 16}
    assert mid.count(8) >= 2 and mid.count(16) >= 2  # rows, then payloads
    after = dict(observed)
    assert [after[f"after {done}"] for done in (7, 8, 15, 16, 24)] == [
        0, 8, 8, 16, 24]
