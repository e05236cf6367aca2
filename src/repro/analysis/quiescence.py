"""Quiescence analysis.

«An algorithm is quiescent [if] eventually no process sends or receives
messages» (paper §V-B).  On a finite trace, quiescence is assessed by looking
at *when the last send happened* relative to the end of the run: a protocol
that quiesces stops sending and the tail of the run is silent, whereas
Algorithm 1 keeps re-broadcasting until the horizon.

:func:`analyze_quiescence` produces a :class:`QuiescenceReport` with the last
send time, the length of the silent tail, a per-window send histogram (the
data series behind experiment E3's figure) and a boolean verdict given a
required idle-tail length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..simulation.engine import SimulationResult
from ..simulation.simtime import SimTime
from ..simulation.tracing import TraceCategory


@dataclass(frozen=True)
class QuiescenceReport:
    """Quiescence verdict and supporting measurements for one run."""

    #: Time of the last channel send (``None`` when nothing was ever sent).
    last_send_time: Optional[SimTime]
    #: Time of the last message retirement (Algorithm 2), if any.
    last_retire_time: Optional[SimTime]
    #: End of the run.
    final_time: SimTime
    #: Length of the silent tail (``final_time - last_send_time``).
    idle_tail: float
    #: Idle tail required to declare the run quiescent.
    required_idle_tail: float
    #: Whether the run is quiescent under that requirement.
    quiescent: bool
    #: Total number of sends.
    total_sends: int

    def describe(self) -> str:
        """One-line summary."""
        status = "quiescent" if self.quiescent else "NOT quiescent"
        last = (
            f"last send at t={self.last_send_time:g}"
            if self.last_send_time is not None
            else "no sends at all"
        )
        return (
            f"{status}: {last}, idle tail {self.idle_tail:g} "
            f"(required {self.required_idle_tail:g}), "
            f"{self.total_sends} sends in total"
        )


def analyze_quiescence(
    result: SimulationResult,
    *,
    required_idle_tail: Optional[float] = None,
) -> QuiescenceReport:
    """Build the :class:`QuiescenceReport` of a finished run.

    Parameters
    ----------
    result:
        The finished run.
    required_idle_tail:
        Minimum silent-tail length for the run to count as quiescent.
        Defaults to two retransmission periods — long enough that a
        still-active Task 1 would certainly have sent something.
    """
    if required_idle_tail is None:
        required_idle_tail = 2.0 * result.config.tick_interval
    last_send = result.trace.last_time(TraceCategory.SEND)
    if last_send is None and result.metrics.last_send_time is not None:
        # Trace may be disabled for large runs; fall back to metrics.
        last_send = result.metrics.last_send_time
    last_retire = result.trace.last_time(TraceCategory.RETIRE)
    final_time = result.final_time
    idle_tail = final_time - last_send if last_send is not None else final_time
    return QuiescenceReport(
        last_send_time=last_send,
        last_retire_time=last_retire,
        final_time=final_time,
        idle_tail=idle_tail,
        required_idle_tail=required_idle_tail,
        quiescent=idle_tail >= required_idle_tail,
        total_sends=result.metrics.total_sends,
    )


def send_histogram(result: SimulationResult,
                   window: float = 5.0) -> list[tuple[SimTime, int]]:
    """``(window_start, sends_in_window)`` over the run, in windows of width
    *window*: read off the trace, or off the metrics' send timeline when
    the trace recorded no sends (the data series behind E3's figure)."""
    histogram = result.trace.timeline(TraceCategory.SEND, window)
    if not histogram and result.metrics.send_marks:
        histogram = _histogram_from_metrics(result, window)
    return histogram


def cumulative_send_curve(
    result: SimulationResult, n_points: int = 50
) -> list[tuple[SimTime, int]]:
    """``(time, cumulative sends)`` samples — the series of figure E3."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    final = result.final_time if result.final_time > 0 else 1.0
    points = []
    for i in range(n_points):
        t = final * i / (n_points - 1)
        points.append((t, result.metrics.cumulative_sends_at(t)))
    return points


def retire_times(result: SimulationResult) -> list[tuple[SimTime, int]]:
    """``(time, process)`` pairs for every message retirement in the run."""
    return [
        (event.time, event.process)
        for event in result.trace.filter(category=TraceCategory.RETIRE)
    ]


def _histogram_from_metrics(result: SimulationResult,
                            window: float) -> list[tuple[SimTime, int]]:
    """Send histogram computed from metrics when the trace is disabled."""
    if window <= 0:
        raise ValueError("window must be positive")
    marks = result.metrics.send_marks
    if not marks:
        return []
    end = max(t for t, _ in marks)
    n_buckets = int(end // window) + 1
    counts = [0] * n_buckets
    sent = 0
    for t, total in marks:
        counts[int(t // window)] += total - sent
        sent = total
    return [(i * window, counts[i]) for i in range(n_buckets)]
