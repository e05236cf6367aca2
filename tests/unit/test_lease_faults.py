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

The worker-level cases put a death on either side of a flush's store commit
(before its ``record_cell_done``) and a clock that steps backwards across a
heartbeat, and
require of both what the lease protocol promises: zombie writes fenced, no
cell lost, none in the table twice, aggregates byte-identical to a clean run.
A last case pins when a worker flushes.
"""

from __future__ import annotations

import itertools
import sqlite3
import time
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
from repro.campaigns.distributed import worker as worker_module
from repro.experiments.batch import ScenarioSuite
from repro.experiments.config import Scenario
from repro.explore.serialize import scenario_to_dict
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
        cells=[(i, "g", f"key{i}", scenario_to_dict(scenario(seed=i)))
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
# a worker dying in a flush, a zombie, and the flush rule, mid-grant
# --------------------------------------------------------------------------- #
def suite() -> ScenarioSuite:
    return ScenarioSuite("lease-fault-suite").add_sweep(
        scenario(), "loss", [LossSpec.none(), LossSpec.bernoulli(0.2)]
    ).with_seeds(4)  # 8 cells


class WorkerClock:
    """Stands in for the ``time`` module inside ``worker.py``: ``monotonic``
    (what the worker times its heartbeats with) reads ``now``, the rest is
    the real module."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def __getattr__(self, name: str):
        return getattr(time, name)


@pytest.fixture
def worker_clock(monkeypatch) -> WorkerClock:
    clock = WorkerClock()
    monkeypatch.setattr(worker_module, "time", clock)
    return clock


@pytest.fixture
def clean_table(tmp_path):
    run_campaign(tmp_path / "single", suite(), name="job")
    with ResultStore(tmp_path / "single", create=False) as store:
        return campaign_table(store, "job")


def prepared_job(root) -> Coordinator:
    """The 8-cell suite in two ranges of 4 (a lone worker's grant is one
    whole range: the tail rule caps it at ceil(8 / 2))."""
    coordinator = Coordinator(root, suite(), name="job",
                              lease_timeout=LEASE_TIMEOUT, range_size=4)
    coordinator.prepare()
    return coordinator


def merged_table(coordinator: Coordinator, root):
    with ResultStore(root) as merged:
        stats = coordinator.finalize(merged)
        return stats, campaign_table(merged, "job"), len(merged)


@pytest.mark.parametrize("reclaimer", ["w0", "w1"])
@pytest.mark.parametrize("dies_in, committed", [
    ((ResultStore, "commit"), 0),
    ((LeaseTable, "record_cell_done"), 4),
], ids=["before-the-commit", "between-commit-and-record"])
def test_death_in_a_flush_loses_and_repeats_nothing(
        tmp_path, clock, monkeypatch, clean_table, dies_in, committed,
        reclaimer):
    """The worker dies at its first flush: before the store commit, which
    drops the flush's cells, or after it, which keeps them with their
    progress unrecorded.  Whoever reclaims the range re-runs what is not
    counted: the dead worker itself finds committed cells with
    ``store.contains``; another worker executes them again and the merge
    keeps one copy of each."""
    job = tmp_path / "job"
    coordinator = prepared_job(job)

    def dies(*_args, **_kwargs):
        raise Killed()

    with monkeypatch.context() as patched:
        patched.setattr(*dies_in, dies)
        with pytest.raises(Killed):
            Worker(job, worker_id="w0", poll_interval=0.01).run()
    with LeaseTable(job) as table:
        status = table.status()
        assert (status.completed_cells, status.leased_ranges) == (0, 1)
    with ResultStore(job / "workers" / "w0" / "store", create=False) as store:
        assert len(store) == committed  # the whole flush or none of it

    clock.now += LEASE_TIMEOUT + 1  # the dead worker's lease runs out
    report = Worker(job, worker_id=reclaimer, poll_interval=0.01).run()
    assert report.ranges_abandoned == 0
    with LeaseTable(job) as table:
        status = table.status()
        assert status.complete and status.completed_cells == 8
        assert status.reclaims == 1
    stats, table, held = merged_table(coordinator, tmp_path / "merged")
    cached = committed if reclaimer == "w0" else 0
    assert (report.cells_cached, report.cells_executed) == (cached, 8 - cached)
    assert (stats.copied, stats.skipped, held) == (8, committed - cached, 8)
    assert table == clean_table and table.render() == clean_table.render()


def test_a_worker_whose_clock_steps_back_is_fenced_not_trusted(
        tmp_path, clock, worker_clock, clean_table):
    """``w0`` flushes its first cell early (half the lease timeout passed)
    with a clock that jumped an hour back, so its lease reads expired to
    ``w1``, which takes the range over while ``w0`` is still in it.  ``w0``
    learns at its next flush, when the grant ends: it has committed its
    cells to its own store, and its record is refused."""
    job = tmp_path / "job"
    coordinator = prepared_job(job)
    clock.now = 5000.0
    rival_reports = []

    def before_the_flush_check(_worker: str, done: int) -> None:
        if done == 1:
            worker_clock.now += LEASE_TIMEOUT / 2  # this cell flushes
            clock.now -= 3600.0  # the step; the flush's heartbeat carries it
        elif done == 2:
            # The early flush wrote the stepped expiry (without it w1 could
            # never take the range over, and would wait for it forever).
            [lease] = [row for row in tables(job)[0] if row["worker"] == "w0"]
            assert lease["lease_expires"] == 1400.0 + LEASE_TIMEOUT
            clock.now = 5001.0   # w1's clock never moved
            rival_reports.append(
                Worker(job, worker_id="w1", poll_interval=0.01).run())
            clock.now = 1401.0

    report = Worker(job, worker_id="w0", poll_interval=0.01).run(
        progress=before_the_flush_check)
    [rival] = rival_reports
    assert (rival.cells_executed, rival.ranges_abandoned) == (8, 0)
    assert (report.cells_executed, report.ranges_completed,
            report.ranges_abandoned) == (4, 0, 1)
    with LeaseTable(job) as table:
        status = table.status()
        assert status.complete and status.completed_cells == 8
        assert status.reclaims == 1
    # w0's four cells are in both stores; the table counts each cell once.
    stats, table, held = merged_table(coordinator, tmp_path / "merged")
    assert (stats.copied, stats.skipped, held) == (8, 4, 8)
    assert table == clean_table and table.render() == clean_table.render()


@pytest.mark.parametrize("seconds_per_cell, flush_every, flushes", [
    (0.0, 8, [4]),           # the grant's end
    (2.0, 8, [2, 2]),        # 4 s since the heartbeat + a 2 s cell >= 5 s
    (1.5, 8, [3, 1]),        # 4.5 s + 1.5 s: a 4th such cell could end
                             # 6 s after the heartbeat, so flush before it
    (LEASE_TIMEOUT / 2, 8, [1, 1, 1, 1]),
    (0.0, 3, [3, 1]),        # three cells unrecorded
])
def test_a_grant_flushes_on_a_count_half_a_lease_and_its_end(
        tmp_path, clock, worker_clock, monkeypatch, seconds_per_cell,
        flush_every, flushes):
    """Each cell is one uncommitted ``put_many`` as it finishes; each flush
    is one store commit, then one ``record_cell_done`` counting the cells
    since the last one, which moves the lease on from the lease table's
    clock at that moment.  A flush comes
    once the time since the last heartbeat plus the last cell's duration
    reaches half the 10 s lease."""
    monkeypatch.setattr(worker_module, "_PERSIST_FLUSH_EVERY", flush_every)
    prepared_job(tmp_path / "job")
    calls = []
    put_many, commit = ResultStore.put_many, ResultStore.commit
    record_cell_done = LeaseTable.record_cell_done

    def counted_put(self, cells, **kwargs):
        calls.append(("put_many", len(cells), kwargs["commit"]))
        return put_many(self, cells, **kwargs)

    def counted_commit(self):
        calls.append(("commit",))
        return commit(self)

    def counted_record(self, grant, count=1, **kwargs):
        recorded = record_cell_done(self, grant, count, **kwargs)
        [leased] = [row for row in tables(tmp_path / "job")[0]
                    if row["state"] == "leased"]
        calls.append(("record_cell_done", count, leased["lease_expires"]))
        return recorded

    def one_cell_later(_worker: str, _done: int) -> None:
        worker_clock.now += seconds_per_cell
        clock.now += 1.0

    monkeypatch.setattr(ResultStore, "put_many", counted_put)
    monkeypatch.setattr(ResultStore, "commit", counted_commit)
    monkeypatch.setattr(LeaseTable, "record_cell_done", counted_record)
    report = Worker(tmp_path / "job", worker_id="w0").run(
        progress=one_cell_later, max_ranges=1)
    assert (report.cells_executed, report.ranges_completed) == (4, 1)
    done = itertools.accumulate(flushes)
    assert calls == [call for count, cells in zip(flushes, done)
                     for call in [("put_many", 1, False)] * count + [
                         ("commit",), ("record_cell_done", count,
                                       100.0 + cells + LEASE_TIMEOUT)]]


def test_a_failing_cell_flushes_what_came_before_it(
        tmp_path, clock, worker_clock, monkeypatch):
    """The failed cell's flush commits and counts the cells already run and
    records the failure; the grant then runs on and completes."""
    prepared_job(tmp_path / "job")
    run_scenario = worker_module.run_scenario
    runs = itertools.count(1)

    def third_fails(scenario):
        if next(runs) == 3:
            raise RuntimeError("cell failed")
        return run_scenario(scenario)

    records = []
    record_cell_done = LeaseTable.record_cell_done

    def counted_record(self, grant, count=1, **kwargs):
        records.append((count, [position for position, _ in
                                kwargs.get("failed", ())]))
        return record_cell_done(self, grant, count, **kwargs)

    monkeypatch.setattr(worker_module, "run_scenario", third_fails)
    monkeypatch.setattr(LeaseTable, "record_cell_done", counted_record)
    report = Worker(tmp_path / "job", worker_id="w0").run(max_ranges=1)
    assert (report.cells_executed, report.ranges_completed,
            report.ranges_abandoned) == (3, 1, 0)
    assert len(report.errors) == 1 and "cell failed" in report.errors[0]
    assert records == [(2, [2]), (1, [])]
    with LeaseTable(tmp_path / "job") as table:
        status = table.status()
        assert (status.completed_cells, status.failed_cells,
                status.leased_ranges, status.done_ranges) == (3, 1, 0, 1)
        [(position, _group, error)] = table.failures()
        assert position == 2 and "cell failed" in error
    with ResultStore(tmp_path / "job" / "workers" / "w0" / "store",
                     create=False) as store:
        assert len(store) == 3


def test_a_cell_that_always_raises_fails_once_and_the_job_completes(
        tmp_path, monkeypatch):
    """Every cell raises, the lease is half a second, one worker: each
    failure is recorded under the lease that ran it, every range completes,
    nothing is reclaimed, and the coordinator names every failed cell."""
    coordinator = Coordinator(tmp_path / "job", suite(), name="job",
                              lease_timeout=0.5, range_size=4)
    coordinator.prepare()

    def raises(scenario):
        raise RuntimeError("always")

    monkeypatch.setattr(worker_module, "run_scenario", raises)
    # A bound on grants, so a job that never completes fails, not hangs.
    report = Worker(tmp_path / "job", worker_id="w0",
                    poll_interval=0.01).run(max_ranges=8)
    assert (report.cells_executed, report.ranges_abandoned) == (0, 0)
    assert len(report.errors) == 8
    with LeaseTable(tmp_path / "job") as table:
        status = table.status()
        assert status.complete and status.reclaims == 0
        assert (status.failed_cells, status.completed_cells) == (8, 0)
        assert [position for position, _, _ in table.failures()] == list(
            range(8))
    with ResultStore(tmp_path / "merged") as merged:
        with pytest.raises(leases.LeaseError,
                           match=r"8 cell\(s\) failed: cell 0 .*always"):
            coordinator.finalize(merged)
        assert len(merged) == 0 and merged.campaign_info("job") is not None


def test_a_reclaim_forgets_the_failures_it_reruns(tmp_path, clock):
    """A failure recorded under a lease that then expires is not the job's:
    the reclaim returns its cells to pending, and they run again."""
    table, grant = leased_job(tmp_path / "job")
    assert table.record_cell_done(grant, 0, failed=[(1, "boom")], now=102.0)
    assert table.status(now=102.0).failed_cells == 1
    assert table.claim("w1", now=200.0).range_id == grant.range_id
    status = table.status(now=200.0)
    assert (status.failed_cells, status.completed_cells) == (0, 0)
    assert table.failures() == []
    table.close()
