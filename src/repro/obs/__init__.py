"""Process-wide observability: metrics registry, timeline, exposition.

This package is the instrumentation layer shared by every subsystem —
engine backends, batch runners, the result store, distributed workers and
the explore loop all record into one process-wide
:class:`~repro.obs.registry.MetricsRegistry`.  It is deliberately
dependency-free (stdlib only) and **off by default**: every recording
method checks a module-level enabled flag before doing any work, so the
disabled cost at an instrumentation site is one function call and one
attribute read.  Instrumented hot paths additionally guard with
:func:`enabled` *before* computing label values, keeping the disabled
path within the repo's 2% overhead budget (see the ``obs_overhead``
benchmark) and leaving the bit-identical determinism invariant untouched
— no instrument ever reads or advances simulation RNG state.

Components
----------
:mod:`~repro.obs.registry`
    Named ``Counter`` / ``Gauge`` / ``Histogram`` instruments with label
    support, atomic under threads.
:mod:`~repro.obs.exposition`
    Prometheus text format v0.0.4 and a key-sorted JSON snapshot.
:mod:`~repro.obs.timeline`
    The JSON-lines sink for run events: timed phases and spans,
    dispatch-mode transitions, lease and store activity.
:mod:`~repro.obs.httpd`
    A stdlib ``ThreadingHTTPServer`` serving ``/metrics``, ``/healthz``
    and ``/snapshot`` (CLI opt-in via ``--metrics-port``).
:mod:`~repro.obs.alerts`
    Declarative threshold rules evaluated against a snapshot into
    exit-code-carrying reports; ``repro-urb obs check`` runs them.
:mod:`~repro.obs.spans`
    Dapper-style trace contexts propagated coordinator → workers through
    the job directory; spans ride the timeline as a ``span`` kind and
    merge into one causally-ordered tree (``repro-urb trace view``).
:mod:`~repro.obs.federation`
    Worker metric snapshots flushed into the job directory and merged by
    the coordinator into ``worker="..."`` + ``worker="_total"`` series.

:func:`phase` and :func:`span` time a block through one stopwatch: with
no active trace context :func:`phase` writes a plain ``phase`` record,
and with one a ``span`` — instrumented callsites never need to know
which.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    reset,
)
from .exposition import render_json, render_prometheus, snapshot
from .timeline import (
    Timeline,
    emit,
    get_timeline,
    set_timeline,
    timeline_active,
)
from .httpd import ObsServer, start_server
from .alerts import AlertReport, AlertRule, default_rules, evaluate, load_rules
from .spans import (
    TraceContext,
    current_context,
    load_context,
    mint_context,
    phase,
    save_context,
    set_context,
    set_process_name,
    span,
    tracing_active,
)
from .federation import (
    Federation,
    SnapshotFlusher,
    get_federation,
    set_federation,
)

__all__ = [
    "AlertReport",
    "AlertRule",
    "Counter",
    "Federation",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsServer",
    "REGISTRY",
    "SnapshotFlusher",
    "Timeline",
    "TraceContext",
    "counter",
    "current_context",
    "default_rules",
    "disable",
    "emit",
    "enable",
    "enabled",
    "evaluate",
    "gauge",
    "get_federation",
    "get_timeline",
    "histogram",
    "load_context",
    "load_rules",
    "mint_context",
    "phase",
    "render_json",
    "render_prometheus",
    "reset",
    "save_context",
    "set_context",
    "set_federation",
    "set_process_name",
    "set_timeline",
    "snapshot",
    "span",
    "start_server",
    "timeline_active",
    "tracing_active",
]
