"""Unit tests for the campaign content hash and the persistent result store."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

from helpers import trace_statements, writes
from repro.campaigns import (
    Campaign,
    ResultStore,
    SchemaMismatchError,
    StoredRow,
    StoreError,
    canonical_scenario_json,
    merge_stores,
    scenario_cell_key,
)
from repro.campaigns import store as store_module
from repro.experiments.config import Scenario
from repro.experiments.runner import run_scenario
from repro.explore.explorer import Counterexample
from repro.explore.serialize import scenario_from_dict, scenario_to_dict
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.workloads.generators import SingleBroadcast


def quick_scenario(**overrides) -> Scenario:
    base = dict(
        name="store-test",
        algorithm="algorithm2",
        n_processes=4,
        max_time=60.0,
        stop_when_quiescent=True,
        drain_grace_period=3.0,
    )
    base.update(overrides)
    return Scenario(**base)


#: Cell keys of hand-written scenarios covering every kind of serialised
#: field: a change to the canonical form that re-keys a stored cell fails.
PINNED_CELL_KEYS = [
    (Scenario(), "7536917c51ab31c0bab71c33a2f597bc"),
    (Scenario(name="pin-crashes", n_processes=5, crashes={1: 2, 3: 4.5},
              max_time=60, tick_interval=1, fd_detection_delay=2,
              apstar_detection_delay=3),
     "d6a6928e3e532fbdb2760680bfe7472b"),
    (Scenario(name="pin-lossy", algorithm="algorithm1", n_processes=4,
              seed=7, loss=LossSpec.bernoulli(0.2),
              delay=DelaySpec.uniform(0.05, 0.5),
              metadata={"grid": "p=0.2", "rep": 1}, engine="vectorized"),
     "66218ca7b62a29a302c40386c3b05a52"),
    (Scenario(name="pin-explored", n_processes=3,
              explore_strategy="random_walk", explore_index=4,
              stop_when_quiescent=True, drain_grace_period=3,
              check_interval=2, fd_learn_delay=1),
     "a1222496ec8f80895be5802b649e133f"),
]


class TestScenarioCellKey:
    @pytest.mark.parametrize("scenario, key", PINNED_CELL_KEYS)
    def test_pinned_cell_keys(self, scenario, key):
        assert scenario_cell_key(scenario) == key

    @pytest.mark.parametrize("spelled", [
        {"max_time": 60}, {"tick_interval": 1}, {"fd_detection_delay": 2},
    ])
    def test_int_spelling_is_one_canonical_form(self, spelled):
        """An int-spelled float field equals its float form, so it writes
        the same canonical dict and gets the same artifact id."""
        as_int = Scenario(**spelled)
        as_float = Scenario(**{k: float(v) for k, v in spelled.items()})
        assert as_int == as_float
        assert json.dumps(scenario_to_dict(as_int)) == json.dumps(
            scenario_to_dict(as_float))
        ids = [ResultStore._artifact_id({"scenario": scenario_to_dict(s),
                                         "schedule_hash": "h"})
               for s in (as_int, as_float)]
        assert ids[0] == ids[1]

    def test_equal_scenarios_hash_equally(self):
        assert scenario_cell_key(quick_scenario()) == scenario_cell_key(
            quick_scenario()
        )

    def test_key_is_stable_across_construction_order(self):
        # Same fields reached through different construction paths (and
        # metadata insertion orders) must produce the same key.
        direct = quick_scenario(seed=3, metadata={"a": 1, "b": 2})
        via_with = quick_scenario(metadata={"b": 2, "a": 1}).with_seed(3)
        assert scenario_cell_key(direct) == scenario_cell_key(via_with)

    @pytest.mark.parametrize("changes", [
        {"seed": 1},
        {"n_processes": 5},
        {"algorithm": "algorithm1"},
        {"loss": LossSpec.bernoulli(0.1)},
        {"tick_interval": 2.0},
        {"metadata": {"k": 1}},
        {"explore_strategy": "random_walk"},
        {"explore_strategy": "random_walk", "explore_index": 7},
    ])
    def test_any_field_change_changes_the_key(self, changes):
        base = quick_scenario()
        assert scenario_cell_key(base) != scenario_cell_key(
            base.with_(**changes)
        )

    def test_canonical_json_is_key_sorted_and_minified(self):
        text = canonical_scenario_json(quick_scenario())
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert ": " not in text and ", " not in text

    def test_python_equal_numeric_fields_hash_equally(self):
        # int-specified values compare equal to their float forms and must
        # land in the same cell (the serialised form coerces to float).
        assert scenario_cell_key(
            quick_scenario(crashes={3: 2}, max_time=60)
        ) == scenario_cell_key(quick_scenario(crashes={3: 2.0}, max_time=60.0))

    def test_key_is_stable_through_the_canonical_round_trip(self):
        scenario = quick_scenario(crashes={3: 2}, max_time=60)
        rebuilt = scenario_from_dict(
            json.loads(canonical_scenario_json(scenario))
        )
        assert scenario_cell_key(rebuilt) == scenario_cell_key(scenario)

    def test_canonical_round_trip_rebuilds_the_scenario(self):
        scenario = quick_scenario(seed=9, crashes={3: 2.0},
                                  loss=LossSpec.bernoulli(0.2))
        rebuilt = scenario_from_dict(
            json.loads(canonical_scenario_json(scenario))
        )
        assert rebuilt == scenario
        assert scenario_cell_key(rebuilt) == scenario_cell_key(scenario)

    def test_unserialisable_scenarios_are_rejected(self):
        with pytest.raises(ValueError):
            scenario_cell_key(
                quick_scenario(workload=SingleBroadcast(sender=0))
            )
        with pytest.raises(ValueError, match="field.s. metadata have"):
            scenario_cell_key(quick_scenario(metadata={"bad": object()}))

    def test_key_error_names_the_spec_field_without_a_json_form(self):
        # A spec parameter with no JSON form is blamed on its field, not on
        # the scenario's metadata.
        spec = LossSpec(kind="drop_first_k", params={"k": frozenset({2})})
        with pytest.raises(ValueError, match="field.s. loss have"):
            scenario_cell_key(quick_scenario(loss=spec))


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        scenario = quick_scenario()
        result = run_scenario(scenario)
        with ResultStore(tmp_path / "store") as store:
            row = store.put(result)
            assert store.puts == 1
            key = scenario_cell_key(scenario)
            assert row.cell_key == key
            assert store.contains(key) and store.hits == 1
            fetched = store.get(key)
            assert fetched == row
            assert fetched.algorithm == "algorithm2"
            assert fetched.all_properties_hold
            assert fetched.mean_latency == result.metrics.mean_latency

    def test_put_many_batches_in_one_transaction(self, tmp_path):
        scenarios = [quick_scenario(seed=s) for s in range(3)]
        results = [run_scenario(s) for s in scenarios]
        with ResultStore(tmp_path / "store") as store:
            rows = store.put_many([ResultStore.pack(r) for r in results])
            assert store.puts == 3
            assert [row.cell_key for row in rows] == [
                scenario_cell_key(s) for s in scenarios
            ]
            for row, result in zip(rows, results):
                assert store.get(row.cell_key, count=False) == row
                payload = store.load(row.cell_key)
                assert payload["scenario"] == result.scenario

    def test_put_many_matches_individual_puts(self, tmp_path):
        scenarios = [quick_scenario(seed=s) for s in range(2)]
        results = [run_scenario(s) for s in scenarios]
        keys = [scenario_cell_key(s) for s in scenarios]
        with ResultStore(tmp_path / "one") as one:
            single = [one.put(r) for r in results]
        with ResultStore(tmp_path / "many") as many:
            # Keys given to pack, as the distributed worker gives its lease's.
            batched = many.put_many([ResultStore.pack(r, k)
                                     for r, k in zip(results, keys)])
        for a, b in zip(single, batched):
            # created_at is stamped at write time; everything else must be
            # byte-for-byte what the one-at-a-time path stores.
            assert a == b.__class__(**{**b.__dict__,
                                       "created_at": a.created_at})

    def test_cells_packed_without_a_store_land_as_put_stores_them(self, tmp_path):
        results = [run_scenario(quick_scenario(seed=s)) for s in range(3)]
        cells = [ResultStore.pack(result) for result in results]  # no store
        assert [cell.cell_key for cell in cells] == [
            scenario_cell_key(result.scenario) for result in results]
        assert ResultStore.pack(results[0], "given").cell_key == "given"
        with ResultStore(tmp_path / "put") as put, \
                ResultStore(tmp_path / "packed") as packed:
            put_rows = [put.put(result) for result in results]
            packed_rows = packed.put_many(cells)
            assert packed.puts == 3
            for a, b in zip(put_rows, packed_rows):
                assert a == replace(b, created_at=a.created_at)
                assert packed.get(b.cell_key, count=False) == b
                ours, theirs = put.load(a.cell_key), packed.load(a.cell_key)
                assert ours.pop("created_at") and theirs.pop("created_at")
                assert ours == theirs

    def test_put_many_can_leave_its_batch_to_a_later_commit(self, tmp_path):
        cells = [ResultStore.pack(run_scenario(quick_scenario(seed=s)))
                 for s in range(3)]
        keys = [cell.cell_key for cell in cells]

        def held(store):
            return sorted(row.cell_key for row in store.query())

        with ResultStore(tmp_path / "store") as store, \
                ResultStore(tmp_path / "store") as other:
            store.put_many(cells[:1], commit=False)
            store.put_many(cells[1:2], commit=False)
            assert store.puts == 2
            # The open batches are this handle's to see, no other's.
            assert store.contains(keys[1], count=False)
            assert held(other) == []
            store.commit()
            assert held(other) == sorted(keys[:2])
            store.put_many(cells[2:], commit=False)
        with ResultStore(tmp_path / "store") as store:
            assert held(store) == sorted(keys[:2])  # closed uncommitted

    def test_put_many_empty_is_a_noop(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            assert store.put_many([]) == []
            assert store.puts == 0 and len(store) == 0

    def test_load_rebuilds_scenario_and_provenance(self, tmp_path):
        scenario = quick_scenario(seed=5)
        result = run_scenario(scenario)
        with ResultStore(tmp_path / "store") as store:
            row = store.put(result)
            payload = store.load(row.cell_key)
        assert payload["scenario"] == scenario
        assert payload["result"]["schedule"] == result.simulation.schedule
        assert payload["result"]["metrics"]["deliveries"] == (
            result.metrics.deliveries
        )

    def test_payload_holds_the_scenario_once(self, tmp_path):
        scenario = quick_scenario(crashes={1: 2})
        cell = ResultStore.pack(run_scenario(scenario))
        payload = store_module._unpack(cell.payload)
        assert payload["scenario"] == scenario_to_dict(scenario)
        assert payload["cell_key"] == scenario_cell_key(scenario)
        assert "scenario" not in payload["result"]

    def test_miss_counters_and_missing_get(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            assert store.get("0" * 32) is None
            assert not store.contains("0" * 32)
            assert store.misses == 2 and store.hits == 0

    def test_query_filters_and_order(self, tmp_path):
        scenarios = [
            quick_scenario(seed=s, loss=LossSpec.bernoulli(p) if p else
                           LossSpec.none())
            for p in (0.0, 0.2) for s in (0, 1)
        ]
        with ResultStore(tmp_path / "store") as store:
            for scenario in scenarios:
                store.put(run_scenario(scenario))
            assert len(store) == 4
            lossy = store.query(loss=0.2)
            assert [r.seed for r in lossy] == [0, 1]
            assert all(r.loss_kind == "bernoulli" for r in lossy)
            assert len(store.query(algorithm="algorithm2")) == 4
            assert store.query(algorithm="algorithm1") == []
            assert len(store.query(all_hold=True)) == 4
            assert len(store.query(limit=3)) == 3
            with pytest.raises(StoreError):
                store.query(nonsense=1)

    def test_campaign_registration_guards(self, tmp_path):
        cells = [(0, "g", "k0"), (1, "g", "k1")]
        with ResultStore(tmp_path / "store") as store:
            store.register_campaign("c1", "suite", cells)
            with pytest.raises(StoreError, match="already exists"):
                store.register_campaign("c1", "suite", cells)
            # Identical manifest resumes fine.
            store.register_campaign("c1", "suite", cells, resume=True)
            with pytest.raises(StoreError, match="different cell list"):
                store.register_campaign("c1", "suite", cells[:1], resume=True)
            assert store.campaign_cells("c1") == cells
            info = store.campaign_info("c1")
            assert info.total == 2 and info.done == 0 and not info.complete
            store.delete_campaign("c1")
            assert store.campaign_info("c1") is None
            with pytest.raises(StoreError):
                store.delete_campaign("c1")

    def test_schema_mismatch_is_loud(self, tmp_path):
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store._db.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
            store._db.commit()
        with pytest.raises(SchemaMismatchError):
            ResultStore(root)

    def test_opening_a_current_store_writes_nothing(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        statements = trace_statements(monkeypatch)
        with ResultStore(root) as store:
            store.put(run_scenario(quick_scenario()))
            # what an earlier version's handle left behind; nobody reads it
            store._db.execute("INSERT INTO meta VALUES ('stat_hits', '7')")
            store._db.commit()
        assert any(sql.lstrip().startswith("CREATE TABLE") for sql in statements)
        del statements[:]
        with ResultStore(root) as store, ResultStore(root, create=False) as second:
            assert len(store) == len(second) == 1
            assert (store.hits, store.misses, store.puts) == (0, 0, 0)
        assert statements and writes(statements) == []
        with ResultStore(root) as store:
            assert dict(store._db.execute("SELECT key, value FROM meta")) == {
                "schema_version": str(store_module.SCHEMA_VERSION), "stat_hits": "7"}

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore(tmp_path / "nowhere", create=False)

    def test_store_path_that_is_a_file_raises_store_error(self, tmp_path):
        target = tmp_path / "storefile"
        target.write_text("not a directory")
        with pytest.raises(StoreError, match="cannot use"):
            ResultStore(target)

    def test_store_directory_holds_the_index_and_nothing_else(self, tmp_path):
        # A cell is one transaction in one file: whatever the store is put
        # through, nothing appears beside the index for gc to sweep.
        index_files = {"index.sqlite", "index.sqlite-wal", "index.sqlite-shm"}

        def layout(root):
            return {path.relative_to(root).as_posix()
                    for path in root.rglob("*")}

        class Killed(BaseException):
            pass

        def kill_after_ten(done, _total, _item):
            if done == 10:
                raise Killed

        results = [run_scenario(quick_scenario(seed=s)) for s in range(3)]
        with ResultStore(tmp_path / "store") as store, \
                ResultStore(tmp_path / "other") as other:
            store.put(results[0])
            store.put_many([ResultStore.pack(r) for r in results[1:]])
            other.put(run_scenario(quick_scenario(seed=9)))
            assert merge_stores(store, [other]).copied == 1
            with pytest.raises(Killed):
                Campaign(store, [quick_scenario(seed=s) for s in range(20, 36)],
                         name="killed").run(progress=kill_after_ten)
            assert 4 < len(store) < 4 + 16  # some shards landed, not all
            assert store.gc(drop_unreferenced=True).dropped_results == 4
            assert layout(store.root) <= index_files
            assert layout(other.root) <= index_files
            for row in store.query():
                assert store.load(row.cell_key)["cell_key"] == row.cell_key
        assert layout(tmp_path / "store") == {"index.sqlite"}

    def test_results_index_is_declared_once(self, tmp_path):
        # StoredRow is the typed public view of the column table: same
        # names, same order, minus the writer's own version stamp.
        columns = [name for name, _sql, _read, _keyword
                   in store_module.RESULT_COLUMNS]
        assert [f.name for f in fields(StoredRow)] == [
            name for name in columns if name != "schema_version"]
        # Every query filter names a column of the table ...
        filters = store_module._QUERY_COLUMNS
        assert set(filters.values()) <= set(columns)
        assert len(filters) == 16 and filters["loss"] == "loss_level"
        # ... and the file on disk has exactly the declared columns.
        with ResultStore(tmp_path / "store") as store:
            on_disk = [row["name"] for row in store._db.execute(
                "PRAGMA table_info(results)")]
            assert on_disk == columns
            for keyword in filters:
                assert store.query(**{keyword: None}) == []

    def test_gc_drop_unreferenced(self, tmp_path):
        scenario = quick_scenario()
        with ResultStore(tmp_path / "store") as store:
            Campaign(store, [scenario], name="keep").run()
            store.put(run_scenario(quick_scenario(seed=77)))
            assert len(store) == 2
            stats = store.gc(drop_unreferenced=True)
            assert stats.dropped_results == 1
            assert len(store) == 1
            assert store.contains(scenario_cell_key(scenario), count=False)


class TestCounterexampleArtifacts:
    def make_counterexample(self) -> Counterexample:
        return Counterexample(
            scenario=quick_scenario(algorithm="algorithm1_noretx"),
            strategy="random_walk",
            schedule_index=3,
            seed=0,
            schedule_hash="abcd1234abcd1234",
            decisions=(("drop", 1, 2, 0), ("deliver", 0, 1, 1)),
            violations=("Validity: nobody delivered",),
            signature=("Validity",),
            shrunk_decisions=(("drop", 1, 2, 0),),
            shrunk_hash="ffff0000ffff0000",
            shrunk_verified=True,
            shrink_tests=5,
        )

    def test_put_query_export_round_trip(self, tmp_path):
        counterexample = self.make_counterexample()
        with ResultStore(tmp_path / "store") as store:
            artifact_id = store.put_counterexample(counterexample)
            rows = store.counterexamples()
            assert len(rows) == 1
            assert rows[0].artifact_id == artifact_id
            assert rows[0].schedule_hash == "abcd1234abcd1234"
            assert rows[0].signature == ("Validity",)
            assert rows[0].algorithm == "algorithm1_noretx"
            assert rows[0].shrunk_verified
            # Export accepts the artifact id and (unambiguous) schedule hash.
            exported = store.export_counterexample(artifact_id,
                                                   tmp_path / "ce.json")
            by_hash = store.export_counterexample("abcd1234abcd1234",
                                                  tmp_path / "ce2.json")
            data = json.loads(exported.read_text())
            assert data == json.loads(by_hash.read_text())
        from repro.explore.serialize import counterexample_to_dict

        assert data == counterexample_to_dict(counterexample)

    def test_same_schedule_different_scenarios_both_kept(self, tmp_path):
        import dataclasses

        first = self.make_counterexample()
        # A different scenario can legitimately produce the same decision
        # trace (hence schedule hash); both artifacts must survive.
        second = dataclasses.replace(
            first, scenario=first.scenario.with_seed(99))
        with ResultStore(tmp_path / "store") as store:
            id_a = store.put_counterexample(first)
            id_b = store.put_counterexample(second)
            assert id_a != id_b
            assert len(store.counterexamples()) == 2
            # The shared schedule hash is now ambiguous as a reference.
            with pytest.raises(StoreError, match="matches 2"):
                store.load_counterexample_dict("abcd1234abcd1234")
            assert store.load_counterexample_dict(id_b)["scenario"]["seed"] == 99

    def test_re_storing_the_same_artifact_is_idempotent(self, tmp_path):
        counterexample = self.make_counterexample()
        with ResultStore(tmp_path / "store") as store:
            first = store.put_counterexample(counterexample)
            second = store.put_counterexample(counterexample)
            assert first == second
            assert len(store.counterexamples()) == 1

    def test_unknown_counterexample_raises(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            with pytest.raises(StoreError):
                store.load_counterexample_dict("nope")
