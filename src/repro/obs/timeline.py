"""Structured JSON-lines run telemetry (the *timeline*).

While the registry answers "how much / how fast", the timeline answers
"what happened when": one JSON object per line, append-only, cheap to
``tail -f`` and trivially machine-parseable.  Event kinds written by the
instrumented layers:

* ``phase`` — a named timed block (``expand``, ``shard``, ``execute``,
  ``persist``, ``merge``, …) with wall-clock and CPU seconds and an
  ``ok``/``error`` status;
* ``span`` — a *traced* phase: the same timing fields plus
  ``trace_id``/``span_id``/``parent_span_id``, ``proc`` and
  ``start_unix``/``end_unix``, written whenever a trace context is
  active so per-process files merge into one campaign tree;
* ``engine.run`` — one per finished simulation run, carrying its
  execution record (:class:`~repro.simulation.engine.ExecutionRecord`):
  the engine, which loop it took and why, and the loop's counts;
* ``lease.claim`` / ``lease.renew`` / ``lease.reclaim`` — distributed
  lease lifecycle;
* ``store.put`` / ``store.hit`` / ``store.miss`` — result-store traffic.

Every record carries ``ts`` (unix seconds) and ``kind``; everything else
is event-specific.  This module is only the sink; both timed kinds are
written by :func:`repro.obs.spans.phase` and :func:`repro.obs.spans.span`.
Like the metrics registry the timeline is off by default: the
module-level sink is ``None`` and :func:`emit` returns after one
attribute read.  Writes are serialised under a lock so worker threads
never interleave partial lines.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, IO, Optional, Union

__all__ = ["Timeline", "emit", "get_timeline", "set_timeline",
           "timeline_active"]


class Timeline:
    """One JSON-lines sink (an opened file or any text stream)."""

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: IO[str] = path.open("a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event; unknown-type fields fall back to ``repr``."""
        record = {"ts": time.time(), "kind": kind}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=repr)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


_TIMELINE: Optional[Timeline] = None


def set_timeline(timeline: Optional[Timeline]) -> Optional[Timeline]:
    """Install (or clear, with ``None``) the process-wide sink.

    Returns the previous sink so callers can restore it; the previous
    sink is **not** closed — ownership stays with whoever created it.
    """
    global _TIMELINE
    previous = _TIMELINE
    _TIMELINE = timeline
    return previous


def get_timeline() -> Optional[Timeline]:
    """The current process-wide sink (``None`` when disabled)."""
    return _TIMELINE


def timeline_active() -> bool:
    """Whether :func:`emit` currently writes anywhere."""
    return _TIMELINE is not None


def emit(kind: str, **fields: Any) -> None:
    """Emit to the process-wide sink; a no-op when none is installed."""
    timeline = _TIMELINE
    if timeline is not None:
        timeline.emit(kind, **fields)
