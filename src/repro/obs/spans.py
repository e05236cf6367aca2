"""Dapper-style distributed tracing over the timeline sink.

A *trace* is one campaign-wide tree of timed spans.  The coordinator mints
a :class:`TraceContext` (``trace_id`` plus a root ``span_id``) when it
prepares a distributed job and persists it in the job directory; every
worker that joins the job inherits the context, so lease claims and cell
executions from all processes parent into one tree.  Span records are an
extension of the existing timeline JSON-lines format — same sink, new
``span`` kind carrying ``trace_id``/``span_id``/``parent_span_id`` — which
means :func:`phase` callsites upgrade to spans for free the moment a
context is active, and a plain ``tail -f`` still works.

Like the metrics registry, tracing is **off by default**: no context is
set, :func:`span` yields without recording anything, and :func:`phase`
falls back to the plain ``phase`` record.  Ids come from :mod:`uuid`, not
from any simulation RNG, so enabling tracing never perturbs determinism —
and with observability disabled nothing here runs at all.

One host, one clock
-------------------
Span timestamps are raw ``time.time()`` readings.  Every process of a job
runs on one host, because the lease table and the result stores are
SQLite files in WAL mode, which does not work over a network filesystem;
so all spans read the same wall clock and nest in causal order as
recorded, with no correction.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from . import timeline as _timeline

__all__ = [
    "TRACE_VERSION",
    "TraceContext",
    "TraceTree",
    "SpanNode",
    "chrome_trace_events",
    "current_context",
    "discover_span_files",
    "load_context",
    "load_trace",
    "mint_context",
    "phase",
    "save_context",
    "set_context",
    "set_process_name",
    "process_name",
    "span",
    "SpanHandle",
    "tracing_active",
]

#: Bump when the trace.json / span record layout changes incompatibly.
TRACE_VERSION = 1

#: File name of the persisted context inside a job's ``obs/`` directory.
TRACE_FILE = "trace.json"


def _new_id() -> str:
    """A fresh 16-hex-digit span id (64 bits, the Dapper/W3C width)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace: ids only, no timing state.

    ``parent_span_id`` is ``None`` for the root context minted by the
    coordinator; :meth:`child` derives the context a sub-span records
    under.
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    def child(self) -> "TraceContext":
        """A new context one level down (fresh span id, parented here)."""
        return TraceContext(self.trace_id, _new_id(), self.span_id)


def mint_context() -> TraceContext:
    """A brand-new trace: fresh trace id plus its root span."""
    return TraceContext(trace_id=uuid.uuid4().hex, span_id=_new_id())


# --------------------------------------------------------------------- #
# process-wide state
# --------------------------------------------------------------------- #
# The *base* context is process-wide (set once per run by the coordinator,
# worker, or CLI session); the *active* context is thread-local so nested
# spans on concurrent threads parent correctly within their own chain.
_BASE: Optional[TraceContext] = None
_ACTIVE = threading.local()
# The span ``proc`` label is thread-local with a first-wins process-wide
# default: in-process tests run the coordinator and several workers as
# threads of one interpreter, and each must stamp its own identity.
_PROC = threading.local()
_PROC_DEFAULT: Optional[str] = None


def set_context(context: Optional[TraceContext]) -> Optional[TraceContext]:
    """Install (or clear, with ``None``) the process-wide base context.

    Returns the previous base so callers can restore it.
    """
    global _BASE
    previous = _BASE
    _BASE = context
    return previous


def current_context() -> Optional[TraceContext]:
    """The innermost active context (thread-local), else the base."""
    active = getattr(_ACTIVE, "context", None)
    return active if active is not None else _BASE


def tracing_active() -> bool:
    """Whether :func:`span` currently records anything."""
    return current_context() is not None


def set_process_name(name: Optional[str]) -> Optional[str]:
    """Name stamped into every span's ``proc`` field (worker id, or
    ``coordinator``); returns the previous thread-local name.

    Sets the calling thread's label; the first non-``None`` name also
    becomes the process-wide default for threads that never set one
    (e.g. pool threads spawned by an instrumented layer).  ``None``
    clears both (tests).
    """
    global _PROC_DEFAULT
    previous = getattr(_PROC, "name", None)
    _PROC.name = name
    if name is None:
        _PROC_DEFAULT = None
    elif _PROC_DEFAULT is None:
        _PROC_DEFAULT = name
    return previous


def process_name() -> str:
    """The current span label (defaults to ``proc-<pid>``)."""
    import os

    return getattr(_PROC, "name", None) or _PROC_DEFAULT \
        or f"proc-{os.getpid()}"


# --------------------------------------------------------------------- #
# recording
# --------------------------------------------------------------------- #
class SpanHandle:
    """What :func:`span` yields: the child context plus live annotation.

    :meth:`annotate` attaches fields decided *inside* the block — a
    cell's outcome, a range's fate — which land on the span record
    emitted at exit.
    """

    __slots__ = ("context", "_fields")

    def __init__(self, context: TraceContext,
                 fields: dict[str, Any]) -> None:
        self.context = context
        self._fields = fields

    def annotate(self, **fields: Any) -> None:
        self._fields.update(fields)


def _write_span(context: TraceContext, name: str, fields: dict[str, Any],
                **timing: Any) -> None:
    """Emit one ``span`` record through the timeline sink."""
    _timeline.emit("span", trace_id=context.trace_id,
                   span_id=context.span_id,
                   parent_span_id=context.parent_span_id, name=name,
                   proc=process_name(), **timing, **fields)


@contextmanager
def _stopwatch(name: str, fields: dict[str, Any],
               context: Optional[TraceContext]) -> Iterator[None]:
    """The one timed block behind :func:`span` and :func:`phase`.

    Reads the clocks once on entry and once on exit.  An exception marks
    the record ``status: error`` (keeping a caller-supplied ``error``
    field) and re-raises.  Under *context* the block is the thread's
    active context and the record is a ``span``; otherwise a plain
    ``phase`` (``name``, ``status``, wall and CPU seconds).
    """
    if context is not None:
        previous = getattr(_ACTIVE, "context", None)
        _ACTIVE.context = context
    start_unix = time.time()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    status = "ok"
    try:
        yield
    except BaseException as exc:
        status = "error"
        fields.setdefault("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        timing = {"status": status,
                  "wall_seconds": time.perf_counter() - wall0,
                  "cpu_seconds": time.process_time() - cpu0}
        if context is None:
            _timeline.emit("phase", name=name, **timing, **fields)
        else:
            _ACTIVE.context = previous
            _write_span(context, name, fields, start_unix=start_unix,
                        end_unix=time.time(), **timing)


@contextmanager
def span(name: str, **fields: Any) -> Iterator[Optional[SpanHandle]]:
    """Record one timed span under the current context.

    Yields a :class:`SpanHandle` (``None`` when tracing is off, making
    the wrapper free to leave in place).  The ``span`` record is emitted
    on exit through the timeline sink.
    """
    parent = current_context()
    if parent is None:
        yield None
        return
    context = parent.child()
    with _stopwatch(name, fields, context):
        yield SpanHandle(context, fields)


@contextmanager
def phase(name: str, **fields: Any) -> Iterator[None]:
    """Time a block: a ``span`` under an active context, else a plain
    ``phase`` record, and free when there is neither a context nor a
    sink — no instrumented layer needs to know about tracing.
    """
    parent = current_context()
    if parent is None and not _timeline.timeline_active():
        yield
        return
    with _stopwatch(name, fields,
                    None if parent is None else parent.child()):
        yield


def emit_root_span(context: TraceContext, name: str, *,
                   start_unix: float, **fields: Any) -> None:
    """Emit the trace's root span record (the coordinator's job span).

    The root context is minted long before its span can be closed, so the
    record is written explicitly at job completion rather than through
    :func:`span`.
    """
    end_unix = time.time()
    _write_span(TraceContext(context.trace_id, context.span_id), name,
                fields, status="ok", start_unix=start_unix,
                end_unix=end_unix, wall_seconds=end_unix - start_unix,
                cpu_seconds=0.0)


# --------------------------------------------------------------------- #
# context persistence (the job directory hand-off)
# --------------------------------------------------------------------- #
def save_context(obs_dir: Union[str, Path], context: TraceContext,
                 **extra: Any) -> Path:
    """Persist *context* as ``<obs_dir>/trace.json`` for workers to inherit.

    ``minted_unix`` records the coordinator's clock at mint time; *extra*
    key/values (job name, suite) travel along for ``trace view`` headers.
    """
    obs_dir = Path(obs_dir)
    obs_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "trace_version": TRACE_VERSION,
        "trace_id": context.trace_id,
        "root_span_id": context.span_id,
        "minted_unix": time.time(),
        **extra,
    }
    path = obs_dir / TRACE_FILE
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    tmp.replace(path)
    return path


def load_context(obs_dir: Union[str, Path]) -> Optional[TraceContext]:
    """Load the persisted job context (``None`` when the job is untraced).

    The returned context *is* the root — installing it as the process base
    makes every local span a child of the coordinator's job span.
    """
    path = Path(obs_dir) / TRACE_FILE
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("trace_version") != TRACE_VERSION:
        raise ValueError(
            f"{path} has trace_version {data.get('trace_version')!r}, "
            f"this library speaks version {TRACE_VERSION}"
        )
    return TraceContext(trace_id=data["trace_id"],
                        span_id=data["root_span_id"])


def load_context_meta(obs_dir: Union[str, Path]) -> dict[str, Any]:
    """The raw ``trace.json`` payload (empty when absent)."""
    path = Path(obs_dir) / TRACE_FILE
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------- #
# trace reconstruction (the `trace view` verb)
# --------------------------------------------------------------------- #
@dataclass
class SpanNode:
    """One span in the merged tree, with its raw wall-clock timestamps."""

    trace_id: str
    span_id: str
    parent_span_id: Optional[str]
    name: str
    proc: str
    status: str
    start_unix: float
    end_unix: float
    fields: dict[str, Any] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)
    orphaned: bool = False

    @property
    def wall_seconds(self) -> float:
        return self.end_unix - self.start_unix

    def as_dict(self) -> dict[str, Any]:
        """JSON form for ``trace view --json`` (children by id)."""
        return {
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "proc": self.proc,
            "status": self.status,
            "start_unix": self.start_unix,
            "end_unix": self.end_unix,
            "wall_seconds": self.wall_seconds,
            "orphaned": self.orphaned,
            "fields": self.fields,
            "children": [child.span_id for child in self.children],
        }


@dataclass
class TraceTree:
    """The reconstructed trace: roots, an id index, and bookkeeping."""

    trace_id: str
    roots: list[SpanNode]
    by_id: dict[str, SpanNode]
    orphans: list[SpanNode]
    procs: tuple[str, ...]

    @property
    def span_count(self) -> int:
        return len(self.by_id)

    # ----------------------------------------------------------------- #
    def cell_spans(self) -> list[SpanNode]:
        """Every ``cell`` span, start-ordered (latency attribution)."""
        cells = [node for node in self.by_id.values()
                 if node.name == "cell"]
        cells.sort(key=lambda node: (node.start_unix, node.span_id))
        return cells

    def critical_path(self) -> list[SpanNode]:
        """Root-to-leaf chain ending at the latest finish under each hop.

        The chain answers "what was the job waiting on": from each span,
        descend into the child that finished last — the work whose
        completion gated the parent's completion.
        """
        if not self.roots:
            return []
        node = max(self.roots, key=lambda n: n.end_unix)
        path = [node]
        while node.children:
            node = max(node.children, key=lambda n: n.end_unix)
            path.append(node)
        return path

    def render(self, *, max_children: int = 40) -> str:
        """Indented text tree with durations, orphans flagged."""
        lines: list[str] = []

        def walk(node: SpanNode, depth: int) -> None:
            label = node.name
            detail = _node_detail(node)
            if detail:
                label += f" {detail}"
            flags = ""
            if node.status != "ok":
                flags += " [ERROR]"
            if node.orphaned:
                flags += " [ORPHAN]"
            lines.append(
                f"{'  ' * depth}{label}  ({node.proc}, "
                f"{node.wall_seconds:.3f}s){flags}"
            )
            shown = node.children[:max_children]
            for child in shown:
                walk(child, depth + 1)
            hidden = len(node.children) - len(shown)
            if hidden > 0:
                lines.append(f"{'  ' * (depth + 1)}... {hidden} more "
                             "child span(s)")

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines)


def _node_detail(node: SpanNode) -> str:
    """A short per-span annotation for the rendered tree."""
    fields = node.fields
    if node.name == "claim" and "range_id" in fields:
        return (f"range {fields['range_id']} "
                f"[{fields.get('start', '?')}"
                f"+{fields.get('count', '?')})")
    if node.name == "cell":
        key = str(fields.get("cell_key", ""))[:12]
        outcome = fields.get("outcome", "")
        group = fields.get("group", "")
        return " ".join(part for part in (group, key, outcome) if part)
    if node.name == "worker":
        return str(fields.get("worker", ""))
    if "job" in fields:
        return repr(fields["job"])
    return ""


_SPAN_CORE_FIELDS = frozenset({
    "ts", "kind", "trace_id", "span_id", "parent_span_id", "name", "proc",
    "status", "start_unix", "end_unix", "wall_seconds", "cpu_seconds",
})


def discover_span_files(jobdir: Union[str, Path]) -> list[Path]:
    """Every ``*.jsonl`` under ``<jobdir>/obs/`` (the per-process sinks).

    Accepts the job directory or its ``obs/`` subdirectory directly.
    """
    root = Path(jobdir)
    obs_dir = root if root.name == "obs" else root / "obs"
    if not obs_dir.is_dir():
        return []
    return sorted(obs_dir.rglob("*.jsonl"))


def read_records(paths: Iterable[Union[str, Path]]) -> list[dict[str, Any]]:
    """The ``span`` records of timeline JSON-lines files.

    Lines of other kinds (phases, lease traffic) are skipped; malformed
    lines raise — a truncated span file should be loud, not silently
    shorten the tree.
    """
    spans: list[dict[str, Any]] = []
    for path in paths:
        for line_number, line in enumerate(
                Path(path).read_text(encoding="utf-8").splitlines(),
                start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed timeline line: {exc}"
                ) from exc
            if record.get("kind") == "span":
                spans.append(record)
    return spans


def build_tree(span_records: Sequence[dict[str, Any]],
               *, trace_id: Optional[str] = None) -> TraceTree:
    """Merge span records from any number of processes into one tree.

    With several trace ids present, *trace_id* selects one (default: the
    id with the most spans).  Spans whose parent is missing from the
    record set become *orphans*, surfaced as extra roots with the
    ``orphaned`` flag — ``trace view`` treats any orphan as a propagation
    bug worth seeing.
    """
    by_trace: dict[str, list[dict[str, Any]]] = {}
    for record in span_records:
        by_trace.setdefault(str(record.get("trace_id")), []).append(record)
    if not by_trace:
        return TraceTree(trace_id="", roots=[], by_id={}, orphans=[],
                         procs=())
    if trace_id is None:
        trace_id = max(by_trace, key=lambda t: len(by_trace[t]))
    elif trace_id not in by_trace:
        raise ValueError(
            f"trace {trace_id!r} not present (found: {sorted(by_trace)})")

    nodes: dict[str, SpanNode] = {}
    for record in by_trace[trace_id]:
        node = SpanNode(
            trace_id=trace_id,
            span_id=str(record["span_id"]),
            parent_span_id=record.get("parent_span_id"),
            name=str(record.get("name", "?")),
            proc=str(record.get("proc", "?")),
            status=str(record.get("status", "ok")),
            start_unix=float(record.get("start_unix", record.get("ts", 0.0))),
            end_unix=float(record.get("end_unix", record.get("ts", 0.0))),
            fields={key: value for key, value in record.items()
                    if key not in _SPAN_CORE_FIELDS},
        )
        nodes[node.span_id] = node

    roots: list[SpanNode] = []
    orphans: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_span_id) \
            if node.parent_span_id else None
        if parent is not None:
            parent.children.append(node)
        elif node.parent_span_id is None:
            roots.append(node)
        else:
            node.orphaned = True
            orphans.append(node)
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start_unix, n.span_id))
    roots.sort(key=lambda n: (n.orphaned, n.start_unix, n.span_id))
    procs = tuple(sorted({node.proc for node in nodes.values()}))
    return TraceTree(trace_id=trace_id, roots=roots, by_id=nodes,
                     orphans=orphans, procs=procs)


def load_trace(target: Union[str, Path, Sequence[Union[str, Path]]],
               *, trace_id: Optional[str] = None) -> TraceTree:
    """One-call reconstruction: job directories and/or span files → tree.

    A directory target is searched for ``obs/**/*.jsonl`` sinks; files
    are read as timeline JSON-lines.  Mixing is allowed — e.g. a job
    workdir plus a coordinator's external ``--timeline-out`` file.
    """
    entries = [target] if isinstance(target, (str, Path)) else list(target)
    paths: list[Path] = []
    for entry in entries:
        candidate = Path(entry)
        if candidate.is_dir():
            found = discover_span_files(candidate)
            if not found:
                raise ValueError(
                    f"no span files under {candidate} (expected "
                    "<jobdir>/obs/<proc>/*.jsonl — was the job run with "
                    "observability enabled?)")
            paths.extend(found)
        else:
            paths.append(candidate)
    missing = [path for path in paths if not path.exists()]
    if missing:
        raise ValueError(f"no such span file(s): "
                         f"{', '.join(str(p) for p in missing)}")
    return build_tree(read_records(paths), trace_id=trace_id)


def chrome_trace_events(tree: TraceTree) -> list[dict[str, Any]]:
    """The tree as Chrome ``chrome://tracing`` / Perfetto JSON events.

    Complete (``ph: "X"``) events, microsecond timestamps, one row
    (``tid``) per process so the coordinator and each worker stack
    visually; span fields travel in ``args``.
    """
    if not tree.by_id:
        return []
    base = min(node.start_unix for node in tree.by_id.values())
    events: list[dict[str, Any]] = []
    for proc in tree.procs:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": proc,
            "args": {"name": proc},
        })
    for node in sorted(tree.by_id.values(),
                       key=lambda n: (n.start_unix, n.span_id)):
        events.append({
            "name": node.name + (f" {_node_detail(node)}"
                                 if _node_detail(node) else ""),
            "cat": "span",
            "ph": "X",
            "ts": (node.start_unix - base) * 1e6,
            "dur": max(node.wall_seconds, 0.0) * 1e6,
            "pid": 1,
            "tid": node.proc,
            "args": {"span_id": node.span_id,
                     "status": node.status, **node.fields},
        })
    return events
