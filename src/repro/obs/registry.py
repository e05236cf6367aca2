"""Named metric instruments and the process-wide registry.

Three instrument kinds, modelled on the Prometheus client data model:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — point-in-time values that move both ways;
* :class:`Histogram` — cumulative-bucket distributions with sum/count.

Every instrument supports **labels**: a fixed tuple of label *names* is
declared at creation and each recording call addresses one label-value
combination (a *child*).  Children materialise lazily on first use; an
unlabelled instrument always exposes its zero value so required series
exist from the moment the instrument is declared.

Thread safety and cost model
----------------------------
Each instrument guards its children map with one ``threading.Lock``, so
concurrent updates from :class:`~repro.experiments.batch.BatchRunner`
callbacks, HTTP scrape threads and renew loops never lose increments.
Every recording method first checks the module-level enabled flag and
returns immediately when observability is off — the disabled cost is one
attribute read and a branch.  Hot call sites are expected to guard with
:func:`enabled` *before* computing label values or doing any arithmetic,
mirroring the ``MetricsCollector.active`` fast-flag discipline in the
simulation layer.
"""

from __future__ import annotations

import gc
import re
import threading
import time
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "reset",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for wall-clock seconds of simulation
#: cells (milliseconds up to a minute); the catch-all +Inf bucket is
#: implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _Runtime:
    """Process-wide state: the enabled flag (one attribute read), the gc hook."""

    __slots__ = ("enabled", "gc_callback")

    def __init__(self) -> None:
        self.enabled = False
        self.gc_callback: Optional[Callable[[str, dict], None]] = None


_RUNTIME = _Runtime()


def _gc_instrument() -> Callable[[str, dict], None]:
    """A ``gc.callbacks`` entry counting collector passes and seconds by
    generation.  A collection can start on any allocation, even one under the
    registry's lock or a counter's own: hence both counters and their children
    are made up front, and instrument locks are re-entrant."""
    passes = counter("repro_gc_collections_total",
                     "Cyclic-collector passes.", ("generation",))
    seconds = counter("repro_gc_seconds_total",
                      "Cyclic-collector seconds.", ("generation",))
    for generation in range(3):
        passes.inc(0, generation=generation)
        seconds.inc(0, generation=generation)
    started = 0.0

    def on_gc(phase: str, info: dict) -> None:
        nonlocal started
        now = time.perf_counter()
        if phase == "stop":
            passes.inc(generation=info["generation"])
            seconds.inc(now - started, generation=info["generation"])
        started = now

    return on_gc


def enable() -> None:
    """Turn observability on process-wide."""
    _RUNTIME.enabled = True
    if _RUNTIME.gc_callback is None:
        _RUNTIME.gc_callback = _gc_instrument()
        gc.callbacks.append(_RUNTIME.gc_callback)


def disable() -> None:
    """Turn observability off process-wide (the default)."""
    _RUNTIME.enabled = False
    if _RUNTIME.gc_callback is not None:
        gc.callbacks.remove(_RUNTIME.gc_callback)
        _RUNTIME.gc_callback = None


def enabled() -> bool:
    """Whether instruments currently record anything."""
    return _RUNTIME.enabled


def _label_values(instrument: "_Instrument",
                  labels: dict[str, str]) -> tuple[str, ...]:
    if set(labels) != set(instrument.labelnames):
        raise ValueError(
            f"metric {instrument.name!r} takes labels "
            f"{instrument.labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in instrument.labelnames)


class _Instrument:
    """Common machinery: identity, label validation, the child lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise ValueError(f"duplicate label names in {tuple(labelnames)}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.RLock()  # see _gc_instrument

    # Subclasses expose ``samples()`` -> list of per-child payloads used
    # by the exposition layer; the list is a consistent point-in-time
    # copy taken under the instrument lock.


class Counter(_Instrument):
    """A monotonically increasing total (use ``*_total`` names)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add *amount* (must be >= 0) to one child's total."""
        if not _RUNTIME.enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_values(self, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current total of one child (0.0 if never incremented)."""
        key = _label_values(self, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Instrument):
    """A value that can go up and down (states, in-flight work)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}
        if not self.labelnames:
            self._values[()] = 0.0

    def set(self, value: float, **labels: str) -> None:
        if not _RUNTIME.enabled:
            return
        key = _label_values(self, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not _RUNTIME.enabled:
            return
        key = _label_values(self, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = _label_values(self, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[tuple[str, ...], float]]:
        with self._lock:
            return sorted(self._values.items())


class _HistogramChild:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """A cumulative-bucket distribution (Prometheus histogram semantics).

    ``buckets`` are the finite upper bounds, strictly increasing; the
    ``+Inf`` catch-all is implicit.  Exposition reports *cumulative*
    per-bucket counts, ``_sum`` and ``_count``, which is exactly what
    ``histogram_quantile`` (and :mod:`repro.obs.alerts`) consume.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in (buckets if buckets is not None
                                          else DEFAULT_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= n for b, n in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds
        self._children: dict[tuple[str, ...], _HistogramChild] = {}
        if not self.labelnames:
            self._children[()] = _HistogramChild(len(bounds))

    def observe(self, value: float, **labels: str) -> None:
        if not _RUNTIME.enabled:
            return
        key = _label_values(self, labels)
        value = float(value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _HistogramChild(len(self.buckets))
                self._children[key] = child
            # Non-cumulative per-bucket counts internally; exposition
            # accumulates them so a single observe touches one slot.
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    child.bucket_counts[i] += 1
                    break
            child.sum += value
            child.count += 1

    def child_state(self, **labels: str) -> tuple[list[int], float, int]:
        """(cumulative bucket counts, sum, count) of one child."""
        key = _label_values(self, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return [0] * len(self.buckets), 0.0, 0
            cumulative: list[int] = []
            running = 0
            for c in child.bucket_counts:
                running += c
                cumulative.append(running)
            return cumulative, child.sum, child.count

    def samples(self) -> list[tuple[tuple[str, ...],
                                    tuple[list[int], float, int]]]:
        with self._lock:
            out = []
            for key, child in sorted(self._children.items()):
                cumulative: list[int] = []
                running = 0
                for c in child.bucket_counts:
                    running += c
                    cumulative.append(running)
                out.append((key, (cumulative, child.sum, child.count)))
            return out


class MetricsRegistry:
    """Name-keyed instrument collection with get-or-create semantics.

    Declaring an instrument twice with the same kind and label names
    returns the existing one (so instrumentation sites never need module
    state); re-declaring with a different shape raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: Sequence[str],
                       **kwargs: Any) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {cls.kind}"  # type: ignore[attr-defined]
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        inst = self._get_or_create(Counter, name, help, labelnames)
        assert isinstance(inst, Counter)
        return inst

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        inst = self._get_or_create(Gauge, name, help, labelnames)
        assert isinstance(inst, Gauge)
        return inst

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        inst = self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)
        assert isinstance(inst, Histogram)
        return inst

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, name-sorted (a stable snapshot)."""
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def reset(self) -> None:
        """Drop every instrument (tests; never called on live paths)."""
        with self._lock:
            self._instruments.clear()


#: The process-wide default registry every subsystem records into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "",
            labelnames: Sequence[str] = ()) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "",
          labelnames: Sequence[str] = ()) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name, help, labelnames)


def histogram(name: str, help: str = "",
              labelnames: Sequence[str] = (),
              buckets: Optional[Iterable[float]] = None) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return REGISTRY.histogram(
        name, help, labelnames,
        buckets=tuple(buckets) if buckets is not None else None)


def reset() -> None:
    """Clear the default registry and disable recording (tests).

    Also clears the process-wide trace context, process name and
    federation handle so one test's tracing state never leaks into the
    next (imports deferred: those modules import this one).
    """
    REGISTRY.reset()
    disable()
    from . import federation, spans
    spans.set_context(None)
    spans.set_process_name(None)
    federation.set_federation(None)
