#!/usr/bin/env python
"""Campaign kill/resume smoke test (the CI `campaign` and `distributed` jobs).

Drives the ``repro-urb campaign`` CLI the way an operator would:

1. start a small sweep campaign as a subprocess and SIGKILL its process
   group mid-run, and assert that no process of it (pool workers
   included) is still alive a few seconds later;
2. re-run the identical command with ``--resume`` and assert — via the
   report's store-hit counters — that **zero** already-persisted cells were
   recomputed;
3. run the same sweep single-shot into a fresh store and assert the two
   aggregate tables are byte-identical.

With ``--distributed`` it instead exercises the coordinator/worker path
(the CI `distributed` job):

1. start ``campaign serve`` plus three ``campaign work`` processes, the
   victim first, so that it leases a whole range alone;
2. SIGKILL one worker while it demonstrably holds a lease with recorded
   progress, and assert the lease table shows the lease was reclaimed;
3. assert the merged store is complete, the dead worker's partial store
   deduplicated against the re-executed cells, and the aggregate table is
   byte-identical to a single-shot run of the same sweep.

Exits non-zero (with a diagnostic) on any violated invariant.  The store
directory is left behind so CI can upload it as an artifact.

Usage::

    python scripts/campaign_smoke.py [--workdir campaign-smoke] [--parallel 2]
    python scripts/campaign_smoke.py --distributed [--workdir dist-smoke]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def sweep_args(n: int) -> list[str]:
    """The sweep under test: 3 loss levels x 8 seeds = 24 cells of size *n*."""
    return [
        "--algorithm", "algorithm2", "--n", str(n), "--values", "0.0,0.1,0.2",
        "--seeds", "8", "--max-time", "120",
    ]


SWEEP_ARGS = sweep_args(5)
#: The distributed phase kills a worker *between two flushes of one lease*,
#: a window it finds by polling the lease table every 20 ms.  A worker
#: records progress once per flush: every 8 cells, at the end of a grant,
#: and once the time since its last heartbeat plus its last cell's duration
#: reaches half the lease timeout, so only that last rule can put recorded
#: progress on a lease that is still held.  An n=24 cell takes 0.12-0.25 s
#: (up to ~0.4 s with three workers on two cores), and the victim's first
#: grant is a whole 8-cell range (see ``distributed_smoke``): a 1 s lease
#: flushes it after its first to third cell and leaves the window open for
#: the rest, while no cell comes near the half lease plus its predecessor
#: that would let the lease run out between two heartbeats.  With n=5
#: cells (~5 ms) the window was shorter than a poll.
DISTRIBUTED_SWEEP_ARGS = sweep_args(24)
DISTRIBUTED_RANGE_SIZE = 8
DISTRIBUTED_LEASE_TIMEOUT = 1.0

REPORT_PATTERN = re.compile(
    r"(\d+) cell\(s\) — (\d+) cached, (\d+) executed"
)


def campaign_command(store: Path, *extra: str,
                     sweep: list[str] = SWEEP_ARGS) -> list[str]:
    return [
        sys.executable, "-m", "repro", "campaign", "run",
        "--store", str(store), "--name", "smoke", *sweep, *extra,
    ]


def run_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def stored_cells(store: Path) -> int:
    """Cells in *store* (0 before its index exists, or has its tables: the
    file appears a moment before the schema does)."""
    index = store / "index.sqlite"
    if not index.exists():
        return 0
    try:
        with sqlite3.connect(index) as db:
            return int(db.execute("SELECT COUNT(*) FROM results").fetchone()[0])
    except sqlite3.OperationalError:
        return 0


def live_group_members(pgid: int) -> list[int]:
    """Pids of the running processes of group *pgid*, read off ``/proc``
    (a zombie left for a reaper does not count)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # it exited while we looked
        if int(group) == pgid and state != "Z":
            members.append(int(stat.parent.name))
    return members


def fail(message: str) -> "int":
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    return 1


def extract_table(output: str) -> str:
    """The aggregate table portion of a `campaign run` stdout."""
    index = output.find("configuration")
    if index < 0:
        raise ValueError(f"no aggregate table in output:\n{output}")
    return output[index:].rstrip()


# --------------------------------------------------------------------------- #
# distributed phase (--distributed): 3 workers, SIGKILL one mid-lease
# --------------------------------------------------------------------------- #
def lease_query(job: Path, sql: str, params: tuple = ()) -> int:
    """One integer aggregate off the job's lease table (0 before it exists
    or while it is briefly locked)."""
    database = job / "leases.sqlite"
    if not database.exists():
        return 0
    try:
        with sqlite3.connect(database, timeout=5) as connection:
            row = connection.execute(sql, params).fetchone()
            return int(row[0]) if row and row[0] is not None else 0
    except sqlite3.OperationalError:
        return 0


def victim_holds_lease_with_progress(job: Path, worker: str) -> bool:
    """Whether *worker* currently leases a range it has recorded progress
    on — the kill point that guarantees both a reclamation (the range can
    no longer complete) and a store overlap (the flush that recorded the
    progress committed its cells first, and they will be re-executed
    elsewhere)."""
    return lease_query(
        job,
        "SELECT COALESCE(SUM(done_cells), 0) FROM ranges "
        "WHERE state = 'leased' AND worker = ?",
        (worker,),
    ) >= 1


def distributed_smoke(workdir: Path, env: dict[str, str]) -> int:
    job = workdir / "job"
    merged_store = workdir / "merged"
    fresh_store = workdir / "single-shot"

    # ------------------------------------------------------------------ #
    # 1. coordinator + 3 workers; short leases so workers flush mid-grant
    #    and reclamation is fast
    # ------------------------------------------------------------------ #
    print("starting coordinator and 3 workers, will SIGKILL one mid-lease...")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "serve",
         "--store", str(merged_store), "--workdir", str(job),
         "--name", "smoke", *DISTRIBUTED_SWEEP_ARGS,
         "--lease-timeout", str(DISTRIBUTED_LEASE_TIMEOUT),
         "--range-size", str(DISTRIBUTED_RANGE_SIZE),
         "--timeout", "420", "--poll-interval", "0.2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )

    def start_worker(name: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "work",
             "--workdir", str(job), "--worker-id", name,
             "--poll-interval", "0.05", "--wait-for-job", "60"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    # The victim claims first, alone: a claim's cap counts the workers
    # active at that moment, so its grant is a whole 8-cell range, long
    # enough for a half-lease flush to land inside it.  Claims made with
    # three workers active get 4 cells, and then 1 or 2 near the tail.
    workers = {"w0": start_worker("w0")}
    victim = workers["w0"]
    deadline = time.monotonic() + 60
    while (time.monotonic() < deadline and victim.poll() is None
           and serve.poll() is None
           and not lease_query(job, "SELECT COUNT(*) FROM ranges "
                                    "WHERE worker = 'w0'")):
        time.sleep(0.02)
    workers.update((name, start_worker(name)) for name in ("w1", "w2"))

    # ------------------------------------------------------------------ #
    # 2. SIGKILL the victim while it provably holds a lease mid-range
    # ------------------------------------------------------------------ #
    deadline = time.monotonic() + 120
    killed = False
    while time.monotonic() < deadline:
        if serve.poll() is not None or victim.poll() is not None:
            break  # job finished (or victim exited) before the kill landed
        if victim_holds_lease_with_progress(job, "w0"):
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            killed = True
            break
        time.sleep(0.02)
    try:
        serve_out, serve_err = serve.communicate(timeout=420)
    except subprocess.TimeoutExpired:
        serve.kill()
        for process in workers.values():
            process.kill()
        return fail("coordinator did not finish in time")
    for name, process in workers.items():
        if name != "w0" or not killed:
            process.communicate(timeout=120)
    if not killed:
        return fail("never caught the victim worker holding a lease with "
                    "progress — kill point unreachable "
                    f"(serve rc={serve.returncode})")
    print("victim worker w0 SIGKILLed mid-lease")
    if serve.returncode != 0:
        return fail(f"serve failed (rc={serve.returncode}):\n{serve_out}\n"
                    f"{serve_err}")

    # ------------------------------------------------------------------ #
    # 3. the kill must have cost w0 its lease: reclaims recorded, job done
    # ------------------------------------------------------------------ #
    reclaims = lease_query(
        job, "SELECT COALESCE(SUM(attempts - 1), 0) FROM ranges "
             "WHERE attempts > 1")
    print(f"lease reclaims recorded: {reclaims}")
    if reclaims < 1:
        return fail("victim was killed mid-lease but no lease was reclaimed")
    if stored_cells(merged_store) != 24:
        return fail(f"merged store holds {stored_cells(merged_store)} "
                    "cell(s), expected 24")
    overlap = re.search(r"(\d+) already present", serve_out)
    if overlap is None or int(overlap.group(1)) < 1:
        return fail(
            "expected the dead worker's partial store to overlap the "
            f"re-executed cells, but the merge deduplicated none:\n{serve_out}"
        )
    print(f"merge deduplicated {overlap.group(1)} re-executed cell(s) "
          "against the dead worker's partial store")

    # ------------------------------------------------------------------ #
    # 4. byte-identical aggregates vs a single-shot run of the same sweep
    # ------------------------------------------------------------------ #
    single = subprocess.run(
        campaign_command(fresh_store, sweep=DISTRIBUTED_SWEEP_ARGS),
        env=env, capture_output=True, text=True, timeout=600,
    )
    if single.returncode != 0:
        return fail(f"single-shot run failed (rc={single.returncode}):\n"
                    f"{single.stdout}\n{single.stderr}")
    distributed_table = extract_table(serve_out)
    single_table = extract_table(single.stdout)
    if distributed_table != single_table:
        return fail(
            "aggregate tables differ between the distributed campaign and "
            f"the single-shot campaign:\n--- distributed ---\n"
            f"{distributed_table}\n--- single-shot ---\n{single_table}"
        )
    print("aggregate table identical to the single-shot run:")
    print(single_table)
    print("SMOKE OK: worker killed mid-lease, lease reclaimed, merge "
          "deduplicated the partial store, aggregates are bit-identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path,
                        default=Path("campaign-smoke"),
                        help="directory for the two stores (kept for CI "
                             "artifact upload)")
    parser.add_argument("--parallel", type=int, default=2,
                        help="worker processes for the killed/resumed run")
    parser.add_argument("--distributed", action="store_true",
                        help="run the coordinator/worker kill-one smoke "
                             "instead of the single-process kill/resume one")
    args = parser.parse_args(argv)

    workdir: Path = args.workdir
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if args.distributed:
        return distributed_smoke(workdir, run_env())
    killed_store = workdir / "killed"
    fresh_store = workdir / "single-shot"
    env = run_env()

    # ------------------------------------------------------------------ #
    # 1. start the campaign and SIGKILL it once a few cells are persisted
    # ------------------------------------------------------------------ #
    print(f"starting campaign (parallel={args.parallel}), will SIGKILL "
          "mid-run...")
    # Its own process group, so the kill takes the pool workers down too.
    process = subprocess.Popen(
        campaign_command(killed_store, "--parallel", str(args.parallel)),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if process.poll() is not None:
            break
        if stored_cells(killed_store) >= 4:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
            break
        time.sleep(0.02)
    else:
        os.killpg(process.pid, signal.SIGKILL)
        return fail("first run neither persisted cells nor finished in time")
    deadline = time.monotonic() + 5
    while (alive := live_group_members(process.pid)) and time.monotonic() < deadline:
        time.sleep(0.1)
    if alive:
        return fail(f"processes {alive} of the killed run outlived it")
    surviving = stored_cells(killed_store)
    if process.returncode == 0 and surviving == 24:
        # Too fast to kill on this machine — still a valid resume test
        # (the resumed run must then recompute nothing at all).
        print("note: first run completed before the kill landed")
    print(f"first run stopped (rc={process.returncode}); "
          f"{surviving} cell(s) persisted")
    if surviving == 0:
        return fail("kill landed before any cell was persisted")

    # ------------------------------------------------------------------ #
    # 2. resume: every surviving cell must be a cache hit, none recomputed
    # ------------------------------------------------------------------ #
    resumed = subprocess.run(
        campaign_command(killed_store, "--parallel", str(args.parallel),
                         "--resume"),
        env=env, capture_output=True, text=True, timeout=300,
    )
    if resumed.returncode != 0:
        return fail(f"resume run failed (rc={resumed.returncode}):\n"
                    f"{resumed.stdout}\n{resumed.stderr}")
    match = REPORT_PATTERN.search(resumed.stdout)
    if match is None:
        return fail(f"no campaign report in resume output:\n{resumed.stdout}")
    total, cached, executed = map(int, match.groups())
    print(f"resume report: {total} cells, {cached} cached, "
          f"{executed} executed")
    if total != 24:
        return fail(f"expected 24 cells, saw {total}")
    if cached != surviving:
        return fail(
            f"{surviving} cell(s) survived the kill but only {cached} were "
            "cache hits — persisted work was recomputed"
        )
    if executed != total - surviving:
        return fail(
            f"expected exactly {total - surviving} executions, saw "
            f"{executed} — resume is not exact"
        )

    # ------------------------------------------------------------------ #
    # 3. single-shot run in a fresh store: identical aggregate table
    # ------------------------------------------------------------------ #
    single = subprocess.run(
        campaign_command(fresh_store),
        env=env, capture_output=True, text=True, timeout=600,
    )
    if single.returncode != 0:
        return fail(f"single-shot run failed (rc={single.returncode}):\n"
                    f"{single.stdout}\n{single.stderr}")
    resumed_table = extract_table(resumed.stdout)
    single_table = extract_table(single.stdout)
    if resumed_table != single_table:
        return fail(
            "aggregate tables differ between the killed+resumed campaign "
            f"and the single-shot campaign:\n--- resumed ---\n"
            f"{resumed_table}\n--- single-shot ---\n{single_table}"
        )
    print("aggregate table identical to the single-shot run:")
    print(single_table)
    print("SMOKE OK: resume recomputed zero persisted cells and aggregates "
          "are bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
