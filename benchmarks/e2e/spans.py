"""Outside-in span tracing for the end-to-end benchmark.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces the public callables named in :data:`FUNCTION_SPANS` and
:data:`METHOD_SPANS` with timing wrappers (module attributes are swapped in
every loaded ``repro`` module that imported the function by name, methods on
their class) and :meth:`Tracer.uninstall` puts the originals back, so the
real ``run_campaign`` / ``Worker.run`` / ``Explorer.run`` paths are traced,
not a re-implementation of them.

A span is the tuple ``(name, start_ns, end_ns, parent, cell)``: *parent* is
the index of the enclosing span (``None`` for the root) and *cell* numbers
the ``run_scenario`` call the span belongs to (``None`` outside a cell).
The benchmark is single-threaded, so spans nest strictly and a span's self
time is its duration minus the durations of its direct children — a
``VectorizedEngine.run`` that falls back into ``SimulationEngine.run`` is
therefore charged only for the hand-over, the reference loop for the rest.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

ROOT_SPAN = "bench.pass"

#: span name -> "module:function"; patched wherever the function was imported.
FUNCTION_SPANS = {
    "runner.scenario": "repro.experiments.runner:run_scenario",
    "runner.build": "repro.experiments.runner:build_engine",
    "analysis.properties": "repro.analysis.properties:check_urb_properties",
    "analysis.quiescence": "repro.analysis.quiescence:analyze_quiescence",
    "analysis.anonymity": "repro.analysis.anonymity:audit_anonymity",
    "hashing.key": "repro.campaigns.hashing:scenario_cell_key",
    "store.serialise": "repro.experiments.export:scenario_result_to_dict",
    "merge.merge": "repro.campaigns.distributed.merge:merge_stores",
    "reporting.table": "repro.campaigns.reporting:campaign_table",
}

#: span name -> "module:Class.method".
METHOD_SPANS = {
    "engine.run": "repro.simulation.engine:SimulationEngine.run",
    "vectorized.run": "repro.simulation.vectorized:VectorizedEngine.run",
    "batch.run": "repro.experiments.batch:BatchRunner.run",
    "campaign.run": "repro.campaigns.campaign:Campaign.run",
    "store.put": "repro.campaigns.store:ResultStore.put_many",
    "store.contains": "repro.campaigns.store:ResultStore.contains",
    "store.register": "repro.campaigns.store:ResultStore.register_campaign",
    "store.query": "repro.campaigns.store:ResultStore.query",
    "coordinator.prepare":
        "repro.campaigns.distributed.coordinator:Coordinator.prepare",
    "coordinator.finalize":
        "repro.campaigns.distributed.coordinator:Coordinator.finalize",
    "worker.run": "repro.campaigns.distributed.worker:Worker.run",
    "leases.initialise":
        "repro.campaigns.distributed.leases:LeaseTable.initialise",
    "leases.claim": "repro.campaigns.distributed.leases:LeaseTable.claim",
    "leases.renew": "repro.campaigns.distributed.leases:LeaseTable.renew",
    "leases.record":
        "repro.campaigns.distributed.leases:LeaseTable.record_cell_done",
    "leases.complete":
        "repro.campaigns.distributed.leases:LeaseTable.complete_range",
    "explore.run": "repro.explore.explorer:Explorer.run",
}

ENGINE_SPANS = ("engine.run", "vectorized.run")
LEASE_SPANS = ("leases.initialise", "leases.claim", "leases.renew",
               "leases.record", "leases.complete")

#: Counts the hooks accumulate per pass (all start at 0).
COUNTERS = (
    "engine.events", "vectorized.events", "vectorized.batched_events",
    "vectorized.consumed_events", "core.sends", "core.urb_deliveries",
    "core.sim_final_time", "network.attempts", "network.dropped",
    "network.forced_deliveries", "store.cells_put", "merge.copied",
    "merge.skipped",
)


def self_times(spans: list[tuple]) -> dict[str, list[int]]:
    """``{span name: [self time in ns, calls]}`` over a finished span list."""
    children = [0] * len(spans)
    for _name, start, end, parent, _cell in spans:
        if parent is not None:
            children[parent] += end - start
    ledger: dict[str, list[int]] = {}
    for index, (name, start, end, _parent, _cell) in enumerate(spans):
        entry = ledger.setdefault(name, [0, 0])
        entry[0] += (end - start) - children[index]
        entry[1] += 1
    return ledger


class Tracer:
    """Span recorder plus the install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._current: Optional[int] = None
        self._cell: Optional[int] = None
        self._cells_seen = 0
        self._undo: list[tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._current = None
        self._cell = None
        self._cells_seen = 0

    @contextmanager
    def root(self) -> Iterator[None]:
        """The span of one whole pass (call :meth:`reset` first); every
        wrapper span nests under it."""
        start = time.perf_counter_ns()
        self.spans.append((ROOT_SPAN, start, start, None, None))  # still open
        self._current = 0
        try:
            yield
        finally:
            self._current = None
            self.spans[0] = (ROOT_SPAN, start, time.perf_counter_ns(), None,
                             None)

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable,
              hook: Optional[Callable[[tuple, Any], None]]) -> Callable:
        opens_cell = name == "runner.scenario"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            spans = self.spans
            index = len(spans)
            parent = self._current
            if opens_cell:
                self._cell = self._cells_seen
                self._cells_seen += 1
            cell = self._cell
            self._current = index
            start = clock()
            spans.append((name, start, start, parent, cell))  # still open
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, cell)
                self._current = parent
                if opens_cell:
                    self._cell = None
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _engine_hook(self, span: str) -> Callable[[tuple, Any], None]:
        def hook(args: tuple, result: Any) -> None:
            engine = args[0]
            counts = self.counts
            events = result.event_stats.total
            if span == "engine.run":
                counts["engine.events"] += events
            else:
                counts["vectorized.events"] += events
                if engine.dispatch_mode == "batched":
                    counts["vectorized.batched_events"] += events
                    if engine.consume_mode == "batched":
                        counts["vectorized.consumed_events"] += events
            if (self._current is not None
                    and self.spans[self._current][0] in ENGINE_SPANS):
                return  # the per-event fallback: the outer run reports
            metrics = result.metrics
            counts["core.sends"] += metrics.total_sends
            counts["core.urb_deliveries"] += metrics.deliveries
            counts["core.sim_final_time"] += result.final_time
            for channel in engine.network.channels.values():
                stats = channel.stats
                counts["network.attempts"] += stats.attempts
                counts["network.dropped"] += stats.dropped
                counts["network.forced_deliveries"] += stats.forced_deliveries

        return hook

    def _put_hook(self, _args: tuple, result: Any) -> None:
        self.counts["store.cells_put"] += len(result)

    def _merge_hook(self, _args: tuple, result: Any) -> None:
        self.counts["merge.copied"] += result.copied
        self.counts["merge.skipped"] += result.skipped

    def install(self) -> None:
        """Swap every traced callable for its wrapper (idempotent)."""
        if self.installed:
            return
        hooks: dict[str, Callable[[tuple, Any], None]] = {
            "store.put": self._put_hook,
            "merge.merge": self._merge_hook,
        }
        for span in ENGINE_SPANS:
            hooks[span] = self._engine_hook(span)
        try:
            for name, target in METHOD_SPANS.items():
                module_name, _, path = target.partition(":")
                class_name, _, attr = path.partition(".")
                cls = getattr(importlib.import_module(module_name), class_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, hooks.get(name)))
            wrappers = {}
            for name, target in FUNCTION_SPANS.items():
                module_name, _, attr = target.partition(":")
                original = getattr(importlib.import_module(module_name), attr)
                wrappers[id(original)] = (
                    original, self._wrap(name, original, hooks.get(name)))
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# spans -> per-layer metrics
# --------------------------------------------------------------------------- #
#: per-layer time metric -> the span whose summed self time it reports.
SELF_TIME_METRICS = {
    "runner.build_s": "runner.build",
    "runner.scenario_s": "runner.scenario",
    "engine.run_s": "engine.run",
    "vectorized.run_s": "vectorized.run",
    "analysis.properties_s": "analysis.properties",
    "analysis.quiescence_s": "analysis.quiescence",
    "analysis.anonymity_s": "analysis.anonymity",
    "hashing.key_s": "hashing.key",
    "store.put_s": "store.put",
    "store.serialise_s": "store.serialise",
    "store.contains_s": "store.contains",
    "store.register_s": "store.register",
    "store.query_s": "store.query",
    "batch.overhead_s": "batch.run",
    "campaign.run_s": "campaign.run",
    "coordinator.prepare_s": "coordinator.prepare",
    "coordinator.finalize_s": "coordinator.finalize",
    "worker.loop_s": "worker.run",
    "leases.initialise_s": "leases.initialise",
    "leases.claim_s": "leases.claim",
    "leases.renew_s": "leases.renew",
    "leases.record_s": "leases.record",
    "leases.complete_s": "leases.complete",
    "merge.merge_s": "merge.merge",
    "reporting.table_s": "reporting.table",
    "explore.run_s": "explore.run",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[tuple],
                  counts: dict[str, float]) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass.

    Times are seconds of self time; a layer the pass never entered reads 0,
    which is itself the prediction for that workload.
    """
    ledger = self_times(spans)

    def seconds(span: str) -> float:
        return ledger.get(span, (0, 0))[0] / 1e9

    def calls(span: str) -> int:
        return ledger.get(span, (0, 0))[1]

    metrics = {metric: seconds(span)
               for metric, span in SELF_TIME_METRICS.items()}
    root_ns = sum(end - start for name, start, end, _p, _c in spans
                  if name == ROOT_SPAN)
    layer_ns = sum(entry[0] for name, entry in ledger.items()
                   if name != ROOT_SPAN)
    batched = counts["vectorized.batched_events"]
    metrics.update({
        "runner.build_calls": calls("runner.build"),
        "hashing.key_calls": calls("hashing.key"),
        "store.put_calls": calls("store.put"),
        "store.cells_per_put": _ratio(counts["store.cells_put"],
                                      calls("store.put")),
        "leases.txn_calls": sum(calls(span) for span in LEASE_SPANS),
        "engine.events": counts["engine.events"],
        "engine.us_per_event": _ratio(seconds("engine.run") * 1e6,
                                      counts["engine.events"]),
        "vectorized.events": counts["vectorized.events"],
        "vectorized.us_per_event": _ratio(seconds("vectorized.run") * 1e6,
                                          batched),
        "vectorized.batched_share": _ratio(batched,
                                           counts["vectorized.events"]),
        "vectorized.consume_batched_share": _ratio(
            counts["vectorized.consumed_events"], counts["vectorized.events"]),
        "core.sends": counts["core.sends"],
        "core.urb_deliveries": counts["core.urb_deliveries"],
        "core.sends_per_delivery": _ratio(counts["core.sends"],
                                          counts["core.urb_deliveries"]),
        "core.sim_final_time": counts["core.sim_final_time"],
        "network.attempts": counts["network.attempts"],
        "network.dropped": counts["network.dropped"],
        "network.forced_deliveries": counts["network.forced_deliveries"],
        "merge.copied": counts["merge.copied"],
        "merge.skipped": counts["merge.skipped"],
        "bench.ledger_coverage": _ratio(layer_ns, root_ns),
    })
    return metrics
