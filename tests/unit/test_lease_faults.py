"""Fault injection at the lease table's write boundary.

Every lease transition (``claim``, ``renew``, ``record_cell_done``,
``complete_range``) is one ``BEGIN IMMEDIATE`` transaction, so the only place
a fault can land is a statement of that transaction.  As in
``test_store_faults.py`` the table gets a scripted connection and each call
is failed at every statement k, two ways: every statement from k on fails
(the process is gone, its ``ROLLBACK`` included, and the handle is abandoned)
or only statement k is refused as ``SQLITE_BUSY`` (the handle lives and
retries).  Either way every other participant must find ``ranges`` and
``workers`` exactly as they were before the call, and the retry must leave
what a clean call leaves.

The worker-level cases put a death between ``store.put`` and
``record_cell_done`` and a clock that steps backwards across a renewal, and
require of both what the lease protocol promises: zombie writes fenced, no
cell lost, none in the table twice, aggregates byte-identical to a clean run.
"""

from __future__ import annotations

import itertools
import sqlite3
from contextlib import closing

import pytest

from helpers import Fault, Killed, disk_full, fault_arming
from repro.campaigns import (
    Coordinator,
    ResultStore,
    Worker,
    campaign_table,
    run_campaign,
)
from repro.campaigns.distributed import LeaseTable, leases
from repro.campaigns.hashing import canonical_scenario_dict
from repro.experiments.batch import ScenarioSuite
from repro.experiments.config import Scenario
from repro.network.loss import LossSpec

LEASE_TIMEOUT = 10.0


def database_busy() -> sqlite3.OperationalError:
    return sqlite3.OperationalError("database is locked")


class FakeClock:
    """Stands in for the ``time`` module inside ``leases.py``."""

    def __init__(self, now: float) -> None:
        self.now = now

    def time(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch) -> FakeClock:
    clock = FakeClock(100.0)
    monkeypatch.setattr(leases, "time", clock)
    return clock


@pytest.fixture
def arm(monkeypatch):
    return fault_arming(monkeypatch, LeaseTable)


def scenario(**overrides) -> Scenario:
    return Scenario(**{**dict(
        name="lease-fault", algorithm="algorithm2", n_processes=3,
        max_time=60.0, stop_when_quiescent=True, drain_grace_period=3.0,
    ), **overrides})


def leased_job(root) -> "tuple[LeaseTable, object]":
    """An 8-cell job in two ranges with workers ``w0`` and ``w1`` registered;
    ``w0`` holds a lease from t=100 (two cells: the tail rule splits the
    first range between the two workers) with one cell recorded."""
    table = LeaseTable(root, create=True)
    table.initialise(
        name="job", suite_name="suite", lease_timeout=LEASE_TIMEOUT, range_size=4,
        cells=[(i, "g", f"key{i}", canonical_scenario_dict(scenario(seed=i)))
               for i in range(8)])
    for worker in ("w0", "w1"):
        table.register_worker(worker, f"stores/{worker}")
    grant = table.claim("w0", now=100.0)
    assert table.record_cell_done(grant, now=101.0)
    return table, grant


def tables(root) -> tuple[list[dict], list[dict]]:
    """``ranges`` and ``workers`` as a participant opening the job sees them."""
    with closing(sqlite3.connect(root / "leases.sqlite")) as db:
        db.row_factory = sqlite3.Row
        return tuple([dict(row) for row in db.execute(f"SELECT * FROM {name} ORDER BY 1")]
                     for name in ("ranges", "workers"))


#: name -> (the method armed, the call made on a table holding ``leased_job``)
TRANSITIONS = {
    # at t=200 the claim also reclaims w0's expired range and splits it
    "claim": ("claim", lambda table, grant: table.claim("w1", now=200.0)),
    "renew": ("renew", lambda table, grant: table.renew(grant, now=105.0)),
    "record_cell_done": (
        "record_cell_done",
        lambda table, grant: table.record_cell_done(grant, now=105.0)),
    "complete_range": (
        "complete_range", lambda table, grant: table.complete_range(grant)),
}

#: (the error, how many statements it fails, whether the handle survives it)
FAULTS = [pytest.param(disk_full, float("inf"), False, id="failing-statement"),
          pytest.param(Killed, float("inf"), False, id="killed"),
          pytest.param(database_busy, 1, True, id="busy")]


@pytest.mark.parametrize("make_error, failures, handle_survives", FAULTS)
@pytest.mark.parametrize("transition", TRANSITIONS)
def test_transition_failed_at_every_statement(
        tmp_path, clock, arm, transition, make_error, failures, handle_survives):
    method, call = TRANSITIONS[transition]
    table, grant = leased_job(tmp_path / "clean")
    before = tables(tmp_path / "clean")
    counting = arm(method, 1, Fault())
    assert call(table, grant)
    table.close()
    after = tables(tmp_path / "clean")
    statements = counting.seen
    assert statements >= 3 and after != before  # begin, update(s), commit

    for k in range(statements):
        root = tmp_path / f"job-{k}"
        table, grant = leased_job(root)
        assert tables(root) == before  # the set-up is the same every time
        arm(method, 1, Fault(make_error(), after=k, failures=failures))
        with pytest.raises(type(make_error())):
            call(table, grant)
        # What the others see, while the failed handle is still open and
        # after it is gone: nothing of the call.
        assert tables(root) == before
        if not handle_survives:
            table._db.close()
            assert tables(root) == before
            table = LeaseTable(root)
        else:
            table._db.fault = None
        assert call(table, grant)  # the retry lands whole
        table.close()
        assert tables(root) == after


@pytest.mark.parametrize("transition", ["renew", "record_cell_done", "complete_range"])
def test_a_zombie_changes_neither_table(tmp_path, clock, arm, transition):
    """The guard failing is an outcome, not an error: ``False``, one empty
    transaction, and the zombie's ``workers`` row as stale as it was."""
    table, zombie = leased_job(tmp_path / "job")
    assert table.claim("w1", now=200.0).range_id == zombie.range_id
    before = tables(tmp_path / "job")
    method, call = TRANSITIONS[transition]
    counting = arm(method, 1, Fault())
    assert call(table, zombie) is False
    assert counting.seen == 3  # begin, the guarded update, commit
    assert tables(tmp_path / "job") == before
    # ... and stays fenced when its first attempt was refused and retried.
    arm(method, 1, Fault(database_busy(), after=1, failures=1))
    with pytest.raises(sqlite3.OperationalError):
        call(table, zombie)
    table._db.fault = None
    assert call(table, zombie) is False
    assert tables(tmp_path / "job") == before
    table.close()


def test_a_clock_stepping_backwards_shrinks_the_lease_it_renews(tmp_path, clock):
    """The only clock a worker has is its own: a heartbeat stamped in the past
    moves the expiry into the past with it, the range is reclaimed early, and
    the fence, which reads no clock, is what keeps the table right."""
    table, grant = leased_job(tmp_path / "job")
    assert table.record_cell_done(grant, now=50.0)  # expiry 111 -> 60
    ranges, workers = tables(tmp_path / "job")
    assert ranges[0]["lease_expires"] == 50.0 + LEASE_TIMEOUT
    assert ranges[0]["done_cells"] == 2
    assert workers[0]["last_seen"] == 50.0  # w0's own row went back as well
    # honoured up to (and at) the expiry its own clock wrote ...
    assert table.claim("w1", now=60.0).range_id != grant.range_id
    # ... reclaimed after it, a minute before the lease it was granted ran out
    stolen = table.claim("w1", now=60.5)
    assert (stolen.range_id, stolen.epoch) == (grant.range_id, grant.epoch + 1)
    before = tables(tmp_path / "job")
    assert not table.record_cell_done(grant, now=51.0)
    assert not table.renew(grant, now=51.0)
    assert not table.complete_range(grant)
    assert tables(tmp_path / "job") == before
    table.close()


# --------------------------------------------------------------------------- #
# a worker dying, and a worker's clock stepping back, mid-grant
# --------------------------------------------------------------------------- #
def suite() -> ScenarioSuite:
    return ScenarioSuite("lease-fault-suite").add_sweep(
        scenario(), "loss", [LossSpec.none(), LossSpec.bernoulli(0.2)]
    ).with_seeds(4)  # 8 cells


@pytest.fixture
def clean_table(tmp_path):
    run_campaign(tmp_path / "single", suite(), name="job")
    with ResultStore(tmp_path / "single", create=False) as store:
        return campaign_table(store, "job")


def merged_table(coordinator: Coordinator, root):
    with ResultStore(root) as merged:
        stats = coordinator.finalize(merged)
        return stats, campaign_table(merged, "job"), len(merged)


def test_death_between_put_and_record_loses_and_repeats_nothing(
        tmp_path, clock, monkeypatch, clean_table):
    job = tmp_path / "job"
    coordinator = Coordinator(job, suite(), name="job",
                              lease_timeout=LEASE_TIMEOUT, range_size=4)
    coordinator.prepare()
    record_cell_done = LeaseTable.record_cell_done
    calls = itertools.count(1)

    def dies_on_second_call(self, grant, **kwargs):
        if next(calls) == 2:  # cell 2 is in the store, its progress is not
            raise Killed()
        return record_cell_done(self, grant, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(LeaseTable, "record_cell_done", dies_on_second_call)
        with pytest.raises(Killed):
            Worker(job, worker_id="w0", poll_interval=0.01).run()
    with LeaseTable(job) as table:
        status = table.status()
        assert (status.completed_cells, status.leased_ranges) == (1, 1)
    with ResultStore(job / "workers" / "w0" / "store", create=False) as store:
        assert len(store) == 2

    # The same worker comes back after its old lease ran out: it reclaims the
    # range, finds the two cells it had stored and runs the other six.
    clock.now += LEASE_TIMEOUT + 1
    report = Worker(job, worker_id="w0", poll_interval=0.01).run()
    assert (report.cells_cached, report.cells_executed) == (2, 6)
    assert report.ranges_abandoned == 0
    with LeaseTable(job) as table:
        status = table.status()
        assert status.complete and status.completed_cells == 8
        assert status.reclaims == 1
    stats, table, held = merged_table(coordinator, tmp_path / "merged")
    assert (stats.copied, stats.skipped, held) == (8, 0, 8)
    assert table == clean_table and table.render() == clean_table.render()


def test_a_worker_whose_clock_steps_back_is_fenced_not_trusted(
        tmp_path, clock, clean_table):
    """``w0`` heartbeats with a clock that jumped an hour back, so its lease
    reads expired to ``w1``, which takes the range over while ``w0`` is still
    in it.  ``w0`` learns at its next ``record_cell_done``, one cell later."""
    job = tmp_path / "job"
    coordinator = Coordinator(job, suite(), name="job",
                              lease_timeout=LEASE_TIMEOUT, range_size=4)
    coordinator.prepare()
    clock.now = 5000.0
    rival_reports = []

    def between_put_and_record(_worker: str, done: int) -> None:
        if done == 1:
            clock.now -= 3600.0  # the step; this cell's heartbeat carries it
        elif done == 2:
            clock.now = 5001.0   # w1's clock never moved
            rival_reports.append(
                Worker(job, worker_id="w1", poll_interval=0.01).run())
            clock.now = 1401.0

    report = Worker(job, worker_id="w0", poll_interval=0.01).run(
        progress=between_put_and_record)
    [rival] = rival_reports
    assert (rival.cells_executed, rival.ranges_abandoned) == (8, 0)
    assert (report.cells_executed, report.ranges_completed,
            report.ranges_abandoned) == (2, 0, 1)
    with LeaseTable(job) as table:
        status = table.status()
        assert status.complete and status.completed_cells == 8
        assert status.reclaims == 1
    # w0's two cells are in both stores; the table counts each cell once.
    stats, table, held = merged_table(coordinator, tmp_path / "merged")
    assert (stats.copied, stats.skipped, held) == (8, 2, 8)
    assert table == clean_table and table.render() == clean_table.render()
