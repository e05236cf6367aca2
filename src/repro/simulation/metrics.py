"""Aggregate run metrics.

While :class:`repro.simulation.tracing.TraceRecorder` keeps a full event log,
:class:`MetricsCollector` keeps cheap aggregate counters and samples that the
experiment harness reports directly: messages sent/dropped/received by
payload kind, per-process send counts, delivery latencies and a cumulative
send timeline (the raw material for the quiescence figures).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter
from typing import Optional

from .simtime import SimTime


def _pairwise_sum(values: list[float]) -> float:
    """``np.add.reduce`` of float64 *values*, bit for bit: numpy's pairwise
    summation (eight strided accumulators per block of at most 128)."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        return reduce(add, values, 0.0)
    stop = n - n % 8
    a = [reduce(add, values[j:stop:8]) for j in range(8)]
    return reduce(add, values[stop:],
                  ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])))


def pairwise_mean(values: list[float]) -> Optional[float]:
    """``np.mean`` of float64 *values*, bit for bit (``None`` when empty):
    the one mean of run latencies and of the group tables built over them."""
    return _pairwise_sum(values) / len(values) if values else None


def _percentile_95(ordered: list[float]) -> float:
    """``np.percentile(ordered, 95)`` of a sorted, non-empty list, bit for
    bit: numpy's ``linear`` index and its two-sided ``_lerp``."""
    index = (len(ordered) - 1) * 0.95
    below = int(index)
    low, high = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    gamma, diff = index - below, high - low
    return high - diff * (1 - gamma) if gamma >= 0.5 else low + diff * gamma


class MetricsLevel(enum.IntEnum):
    """How much a :class:`MetricsCollector` records.

    ``FULL`` (the default) reproduces the historic behaviour: aggregate
    counters plus per-delivery latency samples and the cumulative send
    timeline.  ``COUNTERS`` keeps only the O(1)-memory aggregate counters —
    the right setting for large benchmark sweeps where per-event lists
    would dominate memory and time.  ``OFF`` records nothing.
    """

    OFF = 0
    COUNTERS = 1
    FULL = 2


@dataclass(slots=True)
class LatencySample:
    """One delivery latency observation.

    Attributes
    ----------
    content:
        The application payload delivered.
    process:
        The delivering process.
    broadcast_time:
        Time the payload was URB-broadcast by its sender.
    deliver_time:
        Time this process URB-delivered it.
    """

    content: object
    process: int
    broadcast_time: SimTime
    deliver_time: SimTime

    @property
    def latency(self) -> float:
        """Delivery latency (``deliver_time - broadcast_time``)."""
        return self.deliver_time - self.broadcast_time


@dataclass(slots=True)
class MetricsSummary:
    """Aggregate view of a finished run, as reported by experiments."""

    total_sends: int
    total_drops: int
    total_channel_deliveries: int
    sends_by_kind: dict[str, int]
    sends_by_process: dict[int, int]
    deliveries: int
    mean_latency: Optional[float]
    max_latency: Optional[float]
    p95_latency: Optional[float]
    last_send_time: Optional[SimTime]
    final_time: SimTime

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (JSON friendly)."""
        return {
            "total_sends": self.total_sends,
            "total_drops": self.total_drops,
            "total_channel_deliveries": self.total_channel_deliveries,
            "sends_by_kind": dict(self.sends_by_kind),
            "sends_by_process": dict(self.sends_by_process),
            "deliveries": self.deliveries,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "p95_latency": self.p95_latency,
            "last_send_time": self.last_send_time,
            "final_time": self.final_time,
        }


class MetricsCollector:
    """Accumulates aggregate counters during a run.

    The *level* knob (:class:`MetricsLevel`) gates the per-event lists:
    at ``COUNTERS`` only O(1)-memory aggregates are kept, at ``OFF`` the
    collector is a pure no-op.  The engine reads the plain boolean
    ``active`` attribute before calling the recording hooks, so a disabled
    collector costs one attribute read per event.
    """

    def __init__(self, level: MetricsLevel = MetricsLevel.FULL) -> None:
        self._level = MetricsLevel(level)
        #: Fast flag read by the engine before calling recording hooks.
        self.active: bool = False
        self._full: bool = False
        self._refresh_flags()
        self.total_sends: int = 0
        self.total_drops: int = 0
        #: Copies that reached a live process.  The engines' loops add to
        #: it themselves (when ``active``): one per event, or one run's sum.
        self.total_channel_deliveries: int = 0
        self.sends_by_kind: dict[str, int] = defaultdict(int)
        self.sends_by_process: dict[int, int] = defaultdict(int)
        self.drops_by_kind: dict[str, int] = defaultdict(int)
        self.latency_samples: list[LatencySample] = []
        #: ``(time, cumulative_send_count)`` after each broadcast: its copies
        #: share the time, so this is :attr:`send_timeline` one per broadcast.
        self.send_marks: list[tuple[SimTime, int]] = []
        self.broadcast_times: dict[object, SimTime] = {}
        self.last_send_time: Optional[SimTime] = None
        self.final_time: SimTime = 0.0
        self._deliveries: int = 0

    def _refresh_flags(self) -> None:
        self.active = self._level > MetricsLevel.OFF
        self._full = self._level >= MetricsLevel.FULL

    @property
    def level(self) -> MetricsLevel:
        """The recording level (see :class:`MetricsLevel`)."""
        return self._level

    @level.setter
    def level(self, value: MetricsLevel) -> None:
        self._level = MetricsLevel(value)
        self._refresh_flags()

    # ------------------------------------------------------------------ #
    # recording hooks called by the engine
    # ------------------------------------------------------------------ #
    def on_send_many(self, time: SimTime, src: int, kind: str, count: int) -> None:
        """Record *count* copies of one protocol payload, each handed to one
        directed channel at *time*: one broadcast's fan-out.  At FULL level
        it is one mark of the send timeline.
        """
        if not self.active or count <= 0:
            return
        total = self.total_sends
        self.total_sends = total + count
        self.sends_by_kind[kind] += count
        self.sends_by_process[src] += count
        self.last_send_time = time
        if self._full:
            self.send_marks.append((time, total + count))

    def on_drop_many(self, time: SimTime, src: int, kind: str, count: int) -> None:
        """Record that the channels dropped *count* of those copies."""
        if not self.active or count <= 0:
            return
        self.total_drops += count
        self.drops_by_kind[kind] += count

    def on_urb_broadcast(self, time: SimTime, sender: int, content: object) -> None:
        """Record the application-level broadcast of *content*."""
        if not self.active:
            return
        # First broadcast time wins; re-broadcasting the same content is a
        # workload decision, and latency is measured from the first attempt.
        self.broadcast_times.setdefault(content, time)

    def on_urb_deliver(self, time: SimTime, process: int, content: object) -> None:
        """Record the URB-delivery of *content* at *process*."""
        if not self.active:
            return
        self._deliveries += 1
        if self._full:
            broadcast_time = self.broadcast_times.get(content, 0.0)
            self.latency_samples.append(
                LatencySample(
                    content=content,
                    process=process,
                    broadcast_time=broadcast_time,
                    deliver_time=time,
                )
            )

    def on_finish(self, time: SimTime) -> None:
        """Record the final simulated time of the run."""
        self.final_time = time

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def deliveries(self) -> int:
        """Total number of URB-deliveries across all processes."""
        return self._deliveries

    def latencies(self) -> list[float]:
        """Delivery latencies, in delivery order (possibly empty)."""
        return [s.latency for s in self.latency_samples]

    @property
    def send_timeline(self) -> list[tuple[SimTime, int]]:
        """``(time, cumulative_send_count)`` pairs, one per send: each
        of :attr:`send_marks` spread over its copies."""
        timeline: list[tuple[SimTime, int]] = []
        sent = 0
        for time, total in self.send_marks:
            timeline.extend([(time, count) for count in range(sent + 1, total + 1)])
            sent = total
        return timeline

    def cumulative_sends_at(self, time: SimTime) -> int:
        """Cumulative number of sends up to and including *time* (sends
        are recorded in time order, so a binary search finds it)."""
        marks = self.send_marks
        index = bisect_right(marks, time, key=itemgetter(0))
        return marks[index - 1][1] if index else 0

    def summary(self) -> MetricsSummary:
        """Build the aggregate :class:`MetricsSummary` for reporting (numpy's
        latency figures, without numpy's per-call cost on a few samples)."""
        lat = [sample.latency for sample in self.latency_samples]
        return MetricsSummary(
            total_sends=self.total_sends,
            total_drops=self.total_drops,
            total_channel_deliveries=self.total_channel_deliveries,
            sends_by_kind=dict(self.sends_by_kind),
            sends_by_process=dict(self.sends_by_process),
            deliveries=self.deliveries,
            mean_latency=pairwise_mean(lat),
            max_latency=max(lat) if lat else None,
            p95_latency=_percentile_95(sorted(lat)) if lat else None,
            last_send_time=self.last_send_time,
            final_time=self.final_time,
        )
