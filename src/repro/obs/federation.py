"""Metrics federation: worker snapshots merged into a cluster view.

A distributed campaign runs one coordinator plus N worker *processes*,
each with its own in-process :class:`~repro.obs.registry.MetricsRegistry`
— so without help, worker metrics die with the worker and the
coordinator's ``/metrics`` only shows its own counters.  Federation
closes the gap with files, not sockets: the job directory is already the
shared medium (it holds the lease table), so each worker runs a
:class:`SnapshotFlusher` that periodically writes its PR-8 JSON snapshot
to ``<jobdir>/obs/<worker_id>/metrics.json`` (atomic rename, versioned
envelope), and the coordinator's :class:`Federation` re-reads those files
on every scrape and merges them:

* **counters** — summed across workers per original label tuple into a
  ``worker="_total"`` aggregate, alongside per-worker ``worker="<id>"``
  series;
* **histograms** — cumulative buckets summed per bound, plus summed
  ``sum``/``count``, same ``_total`` + per-worker scheme;
* **gauges** — last-write-wins per worker (each worker's file *is* its
  latest write), exposed per-worker only: summing a point-in-time gauge
  across processes is rarely meaningful.

The merged view is exposed on the coordinator's existing ``ObsServer``
(``/metrics`` and ``/snapshot`` consult the process-wide federation at
request time) and in ``campaign status --watch``.  Like everything in
:mod:`repro.obs` this is off by default — no federation is installed
unless a traced/observed distributed job sets one up — and reads no
simulation state, so disabled runs stay bit-identical.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Optional, Union

from . import exposition as _exposition
from .registry import MetricsRegistry, REGISTRY

__all__ = [
    "FEDERATION_VERSION",
    "Federation",
    "SnapshotFlusher",
    "TOTAL_WORKER",
    "get_federation",
    "merge_snapshots",
    "read_snapshots",
    "render_federated_prometheus",
    "set_federation",
    "write_snapshot",
]

#: Bump when the snapshot envelope layout changes incompatibly.
FEDERATION_VERSION = 1

#: File name each worker flushes inside ``<jobdir>/obs/<worker_id>/``.
SNAPSHOT_FILE = "metrics.json"

#: The reserved ``worker`` label value carrying cross-worker aggregates.
TOTAL_WORKER = "_total"


# --------------------------------------------------------------------- #
# worker side: periodic atomic snapshot flushes
# --------------------------------------------------------------------- #
def write_snapshot(obs_dir: Union[str, Path], worker: str, *, seq: int = 0,
                   registry: Optional[MetricsRegistry] = None) -> Path:
    """Write one versioned snapshot envelope for *worker*, atomically.

    The file is replaced wholesale (tmp + ``os.replace``), so readers
    always see a complete, self-consistent document — the worker's
    *latest* write, which is exactly the last-write-wins semantics
    federation wants for gauges.
    """
    worker_dir = Path(obs_dir) / worker
    worker_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "federation_version": FEDERATION_VERSION,
        "worker": worker,
        "seq": seq,
        "written_unix": time.time(),
        "snapshot": _exposition.snapshot(registry),
    }
    path = worker_dir / SNAPSHOT_FILE
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    tmp.replace(path)
    return path


def default_flush_interval() -> float:
    """Seconds between snapshot flushes (``REPRO_OBS_FLUSH_INTERVAL``
    overrides the 1 s default — CI tightens it for very short jobs)."""
    try:
        return float(os.environ.get("REPRO_OBS_FLUSH_INTERVAL", "1.0"))
    except ValueError:
        return 1.0


class SnapshotFlusher:
    """Daemon thread flushing a worker's registry to the job directory.

    ``stop()`` performs one final flush, so the post-completion totals
    the coordinator aggregates always include the worker's last cell.
    """

    def __init__(self, obs_dir: Union[str, Path], worker: str,
                 interval: Optional[float] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.obs_dir = Path(obs_dir)
        self.worker = worker
        if interval is None:
            interval = default_flush_interval()
        self.interval = max(float(interval), 0.05)
        self.registry = registry
        self._seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def flush(self) -> Path:
        self._seq += 1
        return write_snapshot(self.obs_dir, self.worker, seq=self._seq,
                              registry=self.registry)

    def start(self) -> "SnapshotFlusher":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name=f"obs-flush:{self.worker}", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.flush()
            except OSError:
                # A transiently unwritable jobdir (NFS hiccup, teardown
                # race) must never kill the worker; the next tick retries.
                pass

    def stop(self) -> None:
        """Stop the thread and write the final snapshot (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.flush()
        except OSError:
            pass

    def __enter__(self) -> "SnapshotFlusher":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# --------------------------------------------------------------------- #
# coordinator side: read + merge
# --------------------------------------------------------------------- #
def read_snapshots(obs_dir: Union[str, Path]) -> dict[str, dict[str, Any]]:
    """``{worker: envelope}`` for every readable snapshot under *obs_dir*.

    Unreadable or half-written files are skipped (atomic replace makes
    that rare, but a scrape must never 500 because one worker died
    mid-rename); envelopes with a foreign ``federation_version`` raise —
    silent version skew would merge apples into oranges.
    """
    snapshots: dict[str, dict[str, Any]] = {}
    root = Path(obs_dir)
    if not root.is_dir():
        return snapshots
    for path in sorted(root.glob(f"*/{SNAPSHOT_FILE}")):
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        version = envelope.get("federation_version")
        if version != FEDERATION_VERSION:
            raise ValueError(
                f"{path} has federation_version {version!r}, this library "
                f"speaks version {FEDERATION_VERSION}")
        worker = str(envelope.get("worker") or path.parent.name)
        snapshots[worker] = envelope
    return snapshots


def _label_key(labels: dict[str, Any]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def merge_snapshots(snapshots: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Merge worker envelopes into one exposition-shaped metrics dict.

    The result mirrors the PR-8 snapshot ``metrics`` schema with one
    addition: every sample carries a ``worker`` label — ``worker="<id>"``
    for the per-worker series and ``worker="_total"`` for the cross-worker
    aggregate (counters and histograms only; gauges stay per-worker).
    """
    merged: dict[str, Any] = {}
    # Aggregation state per (metric, original-label-tuple).
    counter_totals: dict[str, dict[tuple, float]] = {}
    hist_totals: dict[str, dict[tuple, dict[str, Any]]] = {}

    for worker in sorted(snapshots):
        metrics = snapshots[worker].get("snapshot", {}).get("metrics", {})
        for name, metric in metrics.items():
            kind = metric.get("type")
            entry = merged.setdefault(name, {
                "type": kind,
                "help": metric.get("help", ""),
                "labelnames": list(metric.get("labelnames", [])) + ["worker"],
                "samples": [],
            })
            for sample in metric.get("samples", []):
                labels = dict(sample.get("labels", {}))
                tagged = {**labels, "worker": worker}
                if kind in ("counter", "gauge"):
                    value = float(sample.get("value", 0.0))
                    entry["samples"].append(
                        {"labels": tagged, "value": value})
                    if kind == "counter":
                        per_name = counter_totals.setdefault(name, {})
                        key = _label_key(labels)
                        per_name[key] = per_name.get(key, 0.0) + value
                elif kind == "histogram":
                    entry["samples"].append({
                        "labels": tagged,
                        "count": sample.get("count", 0),
                        "sum": sample.get("sum", 0.0),
                        "buckets": dict(sample.get("buckets", {})),
                    })
                    per_name = hist_totals.setdefault(name, {})
                    key = _label_key(labels)
                    total = per_name.setdefault(
                        key, {"labels": labels, "count": 0, "sum": 0.0,
                              "buckets": {}})
                    total["count"] += int(sample.get("count", 0))
                    total["sum"] += float(sample.get("sum", 0.0))
                    for bound, cum in sample.get("buckets", {}).items():
                        total["buckets"][bound] = \
                            total["buckets"].get(bound, 0) + int(cum)

    for name, per_name in counter_totals.items():
        for key, value in sorted(per_name.items()):
            merged[name]["samples"].append({
                "labels": {**dict(key), "worker": TOTAL_WORKER},
                "value": value,
            })
    for name, per_name in hist_totals.items():
        for key, total in sorted(per_name.items()):
            merged[name]["samples"].append({
                "labels": {**total["labels"], "worker": TOTAL_WORKER},
                "count": total["count"],
                "sum": total["sum"],
                "buckets": dict(total["buckets"]),
            })
    return merged


def render_federated_prometheus(
        federated: dict[str, Any],
        registry: Optional[MetricsRegistry] = None) -> str:
    """One text-exposition body: local registry plus federated series.

    Each metric name gets a single ``# HELP``/``# TYPE`` header block
    followed by the local (coordinator) samples and then the federated
    ``worker=...`` samples, so standard parsers see a well-formed page.
    """
    registry = registry if registry is not None else REGISTRY
    local = _exposition.snapshot(registry)["metrics"]
    lines: list[str] = []
    for name in sorted(set(local) | set(federated)):
        lines += _exposition._header_lines(name, local.get(name) or federated[name])
        for metrics in (local, federated):
            if name in metrics:
                lines += _exposition._sample_lines(name, metrics[name])
    return "\n".join(lines) + "\n"


class Federation:
    """The coordinator's read-side handle on a job's snapshot directory."""

    def __init__(self, obs_dir: Union[str, Path],
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.obs_dir = Path(obs_dir)
        self.registry = registry

    def collect(self) -> dict[str, dict[str, Any]]:
        """Fresh ``{worker: envelope}`` from disk (no caching — scrapes
        are seconds apart and files are tiny)."""
        return read_snapshots(self.obs_dir)

    def merged_metrics(self) -> dict[str, Any]:
        return merge_snapshots(self.collect())

    def workers(self) -> dict[str, dict[str, Any]]:
        """``{worker: {"seq", "written_unix", "age_seconds"}}`` liveness."""
        now = time.time()
        return {
            worker: {
                "seq": envelope.get("seq", 0),
                "written_unix": envelope.get("written_unix", 0.0),
                "age_seconds": now - float(envelope.get("written_unix",
                                                        now)),
            }
            for worker, envelope in self.collect().items()
        }

    def render_prometheus(self) -> str:
        return render_federated_prometheus(self.merged_metrics(),
                                           self.registry)

    def snapshot(self) -> dict[str, Any]:
        """The local PR-8 snapshot plus a ``federation`` section."""
        document = _exposition.snapshot(self.registry)
        document["federation"] = {
            "federation_version": FEDERATION_VERSION,
            "workers": self.workers(),
            "metrics": self.merged_metrics(),
        }
        return document


# --------------------------------------------------------------------- #
# process-wide handle (consulted by the ObsServer at request time)
# --------------------------------------------------------------------- #
_FEDERATION: Optional[Federation] = None


def set_federation(federation: Optional[Federation]) -> Optional[Federation]:
    """Install (or clear, with ``None``) the process-wide federation.

    Returns the previous handle so callers can restore it.
    """
    global _FEDERATION
    previous = _FEDERATION
    _FEDERATION = federation
    return previous


def get_federation() -> Optional[Federation]:
    """The process-wide federation (``None`` outside a distributed job)."""
    return _FEDERATION
