#!/usr/bin/env python
"""Observability smoke test (the CI `obs` job).

Exercises the obs layer against a *live* distributed campaign, the way an
operator would watch one:

1. start ``campaign serve --metrics-port`` plus two ``campaign work
   --metrics-out`` processes on a small sweep;
2. scrape ``GET /metrics`` from the coordinator **mid-run**, parse it as
   Prometheus text exposition format v0.0.4 (every sample line must
   parse, every series must carry ``# HELP``/``# TYPE`` headers,
   histogram bucket counts must be cumulative) and require the
   coordinator series (``repro_coordinator_polls_total``,
   ``repro_lease_cells``, ``repro_lease_ranges``);
3. while scraping, require the *federated* series: every worker must
   appear as ``worker="<id>"`` labelled samples on the coordinator's
   ``/metrics``, and within one scrape body every ``worker="_total"``
   counter aggregate must equal the sum of the per-worker samples for
   the same label tuple;
4. after completion, require the worker series
   (``repro_sim_runs_total``, ``repro_store_puts_total``,
   ``repro_worker_cells_total``) in the workers' ``--metrics-out``
   snapshots and run the alert rules (``repro-urb obs check``) over
   every final snapshot — a reclaim storm or failed cells fails CI;
5. reconstruct the distributed trace with ``repro-urb trace view
   --json`` and require a single trace id, zero orphan spans,
   correctly parented worker → claim → cell span chains from *every*
   worker, and causal order on the raw timestamps of every process:
   each child starts at or after its parent and ends at or before it
   (all processes share the one host's clock).  A ``worker`` span may
   end after the ``job`` span: an idle worker sees the job complete
   only at its next poll, which can come after the coordinator merged.

Exits non-zero with a diagnostic on any violated invariant.  The workdir
is left behind so CI can upload it as an artifact.

Usage::

    python scripts/obs_smoke.py [--workdir obs-smoke] [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path
from urllib.error import URLError
from urllib.request import urlopen

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The sweep under test: 3 loss levels x 8 seeds = 24 cells, of about 0.15 s
#: each.  At n=5 a cell takes 5 ms and the job 0.1 s: one run in three, the
#: first worker up had every cell before the second claimed or a snapshot
#: was flushed, and the per-worker checks below had nothing to read.
SWEEP_ARGS = [
    "--algorithm", "algorithm2", "--n", "24", "--values", "0.0,0.1,0.2",
    "--seeds", "8", "--max-time", "120",
]

#: Series the coordinator's live scrape must expose mid-run.
COORDINATOR_SERIES = (
    "repro_coordinator_polls_total",
    "repro_lease_cells",
    "repro_lease_ranges",
    "repro_lease_workers_active",
)

#: Series every worker's final snapshot must contain.
WORKER_SERIES = (
    "repro_sim_runs_total",
    "repro_store_puts_total",
    "repro_worker_cells_total",
    "repro_worker_cell_seconds",
)

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[0-9eE+.\-]+|\+Inf|-Inf|NaN)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse text exposition format; fails loudly on any malformed line.

    Returns ``{series_base_name: [(labels, value), ...]}`` where
    ``_bucket``/``_sum``/``_count`` suffixes fold into the histogram's
    base name.
    """
    series: dict[str, list[tuple[dict, float]]] = {}
    typed: dict[str, str] = {}
    helped: set[str] = set()
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            helped.add(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            fail(f"/metrics line {line_number} does not parse: {line!r}")
        labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base not in typed and name not in typed:
            fail(f"series {name!r} has no # TYPE header")
        if base not in helped and name not in helped:
            fail(f"series {name!r} has no # HELP header")
        value = float(match.group("value").replace("+Inf", "inf")
                      .replace("-Inf", "-inf"))
        series.setdefault(base, []).append((labels, value))
    # Histogram buckets must be cumulative in ascending ``le`` order.
    for name, kind in typed.items():
        if kind != "histogram":
            continue
        buckets = [(labels, value) for labels, value
                   in series.get(name, [])
                   if "le" in labels]
        by_child: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in buckets:
            child = tuple(sorted((k, v) for k, v in labels.items()
                                 if k != "le"))
            bound = float(labels["le"].replace("+Inf", "inf"))
            by_child.setdefault(child, []).append((bound, value))
        for child, entries in by_child.items():
            entries.sort()
            counts = [count for _, count in entries]
            if counts != sorted(counts):
                fail(f"histogram {name!r} child {child} has "
                     f"non-cumulative buckets: {counts}")
    return series


def scrape(port: int) -> str | None:
    try:
        with urlopen(f"http://127.0.0.1:{port}/metrics",
                     timeout=2.0) as response:
            content_type = response.headers.get("Content-Type", "")
            if "version=0.0.4" not in content_type:
                fail(f"unexpected /metrics Content-Type {content_type!r}")
            return response.read().decode("utf-8")
    except (URLError, OSError, ConnectionError):
        return None


def check_snapshot_series(path: Path, required: tuple[str, ...]) -> None:
    if not path.exists():
        fail(f"expected snapshot {path} was not written")
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("snapshot_version") != 1:
        fail(f"{path}: unexpected snapshot_version "
             f"{data.get('snapshot_version')!r}")
    missing = [name for name in required
               if name not in data.get("metrics", {})]
    if missing:
        fail(f"{path} is missing required series: {missing} "
             f"(has: {sorted(data.get('metrics', {}))})")


def check_federated_totals(
        series: dict[str, list[tuple[dict, float]]]) -> int:
    """Every ``worker="_total"`` sample must equal the sum of the
    per-worker samples for the same label tuple, within one scrape body
    (one body = one read of the snapshot files, so no file race).
    Returns the number of aggregates checked."""
    checked = 0
    for name, samples in series.items():
        groups: dict[tuple, dict[str, float]] = {}
        for labels, value in samples:
            if "worker" not in labels:
                continue  # the coordinator's own local series
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "worker"))
            groups.setdefault(key, {})[labels["worker"]] = value
        for key, by_worker in groups.items():
            if "_total" not in by_worker:
                continue
            total = by_worker["_total"]
            partial = sum(v for w, v in by_worker.items() if w != "_total")
            if abs(total - partial) > 1e-9:
                fail(f"federated {name}{dict(key)}: worker=\"_total\" is "
                     f"{total} but per-worker samples sum to {partial}")
            checked += 1
    return checked


def check_trace(workdir: Path, job: Path, env: dict[str, str],
                worker_ids: list[str]) -> None:
    """Reconstruct the distributed trace and verify its invariants:
    one trace id across every span file, a single ``job`` root, no
    orphans, and worker → claim → cell parenting from every worker."""
    command = [sys.executable, "-m", "repro", "trace", "view",
               str(job), str(workdir / "coordinator.jsonl"), "--json"]
    result = subprocess.run(command, env=env, capture_output=True,
                            text=True)
    if result.returncode != 0:
        fail(f"trace view exited {result.returncode}:\n{result.stderr}")
    doc = json.loads(result.stdout)
    if doc["orphan_span_ids"]:
        fail(f"trace has orphan spans: {doc['orphan_span_ids']}")

    trace_ids = set()
    span_files = [workdir / "coordinator.jsonl",
                  *sorted((job / "obs").rglob("*.jsonl"))]
    for path in span_files:
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("kind") == "span":
                trace_ids.add(record["trace_id"])
    if len(trace_ids) != 1:
        fail(f"expected a single trace id across "
             f"{len(span_files)} span file(s), found {sorted(trace_ids)}")

    spans = doc["spans"]
    roots = [span for span in spans.values()
             if span["parent_span_id"] is None]
    if len(roots) != 1 or roots[0]["name"] != "job":
        fail(f"expected one 'job' root span, got "
             f"{[root['name'] for root in roots]}")
    for worker_id in worker_ids:
        cells = [span for span in spans.values()
                 if span["name"] == "cell" and span["proc"] == worker_id]
        if not cells:
            fail(f"no cell spans recorded by worker {worker_id}")
        for cell in cells:
            claim = spans.get(cell["parent_span_id"] or "")
            if claim is None or claim["name"] != "claim":
                fail(f"cell span {cell['span_id']} ({worker_id}) is not "
                     f"parented to a claim span")
            worker_span = spans.get(claim["parent_span_id"] or "")
            if worker_span is None or worker_span["name"] != "worker":
                fail(f"claim span {claim['span_id']} ({worker_id}) is not "
                     f"parented to a worker span")
            if worker_span["parent_span_id"] != roots[0]["span_id"]:
                fail(f"worker span of {worker_id} is not parented to the "
                     f"job root")
    for parent in spans.values():
        for child_id in parent["children"]:
            child = spans[child_id]
            outlives = child["end_unix"] > parent["end_unix"] \
                and child["name"] != "worker"
            if child["start_unix"] < parent["start_unix"] or outlives:
                fail(f"span {child['name']} {child_id} ({child['proc']}) "
                     f"is not inside its parent {parent['name']} "
                     f"({parent['proc']}) on raw timestamps")
    print(f"trace ok: 1 trace id, {doc['span_count']} spans, "
          f"{doc['cells']['count']} cell spans, no orphans, "
          f"claim->cell chains verified for {len(worker_ids)} worker(s), "
          f"causal order on raw timestamps across "
          f"{len(doc['procs'])} process(es)")


def run_alerts(path: Path) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "check", str(path)],
        env=run_env(), capture_output=True, text=True,
    )
    print(result.stdout.rstrip())
    if result.returncode != 0:
        fail(f"alert rules fired on {path}:\n{result.stdout}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="obs-smoke")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    store = workdir / "store"
    job = workdir / "job"
    port = free_port()

    serve_cmd = [
        sys.executable, "-m", "repro", "campaign", "serve",
        "--store", str(store), "--workdir", str(job),
        "--name", "obs-smoke", *SWEEP_ARGS,
        "--lease-timeout", "30", "--range-size", "4",
        "--timeout", str(args.timeout),
        "--metrics-port", str(port),
        "--metrics-out", str(workdir / "coordinator.json"),
        "--timeline-out", str(workdir / "coordinator.jsonl"),
    ]
    worker_cmds = [
        [sys.executable, "-m", "repro", "campaign", "work",
         "--workdir", str(job), "--worker-id", f"smoke-w{index}",
         "--wait-for-job", "60",
         "--metrics-out", str(workdir / f"worker{index}.json")]
        for index in range(args.workers)
    ]

    env = run_env()
    # Tighten the workers' snapshot flush cadence so the mid-run scrape
    # reliably sees federated series on a fast 24-cell job.
    env["REPRO_OBS_FLUSH_INTERVAL"] = "0.2"
    serve_log = (workdir / "serve.log").open("w")
    serve = subprocess.Popen(serve_cmd, env=env, stdout=serve_log,
                             stderr=subprocess.STDOUT)
    workers = []
    for index, command in enumerate(worker_cmds):
        log = (workdir / f"worker{index}.log").open("w")
        workers.append((subprocess.Popen(command, env=env, stdout=log,
                                         stderr=subprocess.STDOUT), log))

    # ---- mid-run: scrape and validate the coordinator's /metrics ----- #
    deadline = time.monotonic() + args.timeout
    live_series: dict[str, list] | None = None
    federated_series: dict[str, list] | None = None
    scrapes = 0
    try:
        while serve.poll() is None:
            if time.monotonic() > deadline:
                fail("job did not complete within the timeout")
            body = scrape(port)
            if body is not None:
                parsed = parse_prometheus(body)
                scrapes += 1
                # Keep the richest scrape seen: early ones may predate
                # the first status poll.
                if all(name in parsed for name in COORDINATOR_SERIES):
                    live_series = parsed
                # Keep the last scrape carrying federated aggregates.
                if any("_total" == labels.get("worker")
                       for samples in parsed.values()
                       for labels, _value in samples):
                    federated_series = parsed
            time.sleep(0.2)
    finally:
        for worker, _log in workers:
            if worker.poll() is None and serve.poll() is not None \
                    and serve.returncode != 0:
                worker.kill()

    if serve.returncode != 0:
        serve_log.close()
        fail(f"campaign serve exited {serve.returncode}; log:\n"
             f"{(workdir / 'serve.log').read_text()}")
    if scrapes == 0:
        fail("never managed a successful mid-run /metrics scrape")
    if live_series is None:
        fail(f"mid-run scrapes ({scrapes}) never exposed all required "
             f"coordinator series {COORDINATOR_SERIES}")
    polls = sum(value for _labels, value
                in live_series["repro_coordinator_polls_total"])
    if polls <= 0:
        fail("repro_coordinator_polls_total never incremented")
    print(f"mid-run scrape ok after {scrapes} scrape(s): "
          f"{len(live_series)} series, {polls:.0f} status polls seen")

    for worker, log in workers:
        code = worker.wait(timeout=60)
        log.close()
        if code != 0:
            index = workers.index((worker, log))
            fail(f"worker {index} exited {code}; log:\n"
                 f"{(workdir / f'worker{index}.log').read_text()}")
    serve_log.close()

    # ---- post-run: snapshots, required series, alert rules ----------- #
    check_snapshot_series(workdir / "coordinator.json", (
        "repro_coordinator_polls_total",
        "repro_coordinator_merged_cells_total",
        "repro_lease_cells",
    ))
    for index in range(args.workers):
        check_snapshot_series(workdir / f"worker{index}.json",
                              WORKER_SERIES)
    timeline = workdir / "coordinator.jsonl"
    if not timeline.exists():
        fail("coordinator timeline was not written")
    kinds = {json.loads(line)["kind"]
             for line in timeline.read_text().splitlines()}
    # A traced coordinator upgrades its phase records to spans.
    if "span" not in kinds:
        fail(f"coordinator timeline has no 'span' events (kinds: {kinds})")

    # ---- federation: per-worker series + exact _total aggregates ----- #
    if federated_series is None:
        fail("no mid-run scrape ever carried federated worker=\"_total\" "
             "aggregates")
    for worker_index in range(args.workers):
        worker_id = f"smoke-w{worker_index}"
        seen = any(labels.get("worker") == worker_id
                   for samples in federated_series.values()
                   for labels, _value in samples)
        if not seen:
            fail(f"federated /metrics never showed worker={worker_id!r} "
                 f"samples")
    aggregates = check_federated_totals(federated_series)
    if aggregates == 0:
        fail("federated scrape carried no checkable _total aggregates")
    print(f"federation ok: {aggregates} worker=\"_total\" aggregate(s) "
          f"equal their per-worker sums")

    # ---- tracing: one causally-consistent span tree ------------------ #
    check_trace(workdir, job, env,
                [f"smoke-w{index}" for index in range(args.workers)])

    for path in sorted(workdir.glob("*.json")):
        run_alerts(path)

    print("obs smoke ok: live scrape validated, federation aggregates "
          "exact, trace tree consistent, worker snapshots complete, "
          "no alert rules firing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
