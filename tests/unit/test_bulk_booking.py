"""What booking a broadcast once must not change.

``broadcast_from`` decides every copy's fate, then books the broadcast: the
per-copy SEND / DROP trace rows, the RECEIVE events, the metrics.  The
literals below were recorded at the last commit that booked copy by copy
(one ``metrics.on_send``, ``record_copy`` and ``queue.schedule`` per copy,
PR 20's parent); a booking change that moves any of them changed what a run
says, not just how it is kept.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.config import Scenario
from repro.experiments.runner import build_engine
from repro.explore import (
    CRASH,
    DELIVER,
    DROP,
    DefaultScheduleController,
    RecordingController,
)
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.simulation.events import EventKind
from repro.simulation.scheduler import SchedulingError
from repro.simulation.tracing import TraceCategory

LOSSY = Scenario(
    name="booking",
    algorithm="algorithm2",
    n_processes=5,
    seed=99,
    loss=LossSpec.bernoulli(0.3),
    delay=DelaySpec.uniform(0.05, 0.5),
    crashes={4: 3.0},
    workload="burst",
    metadata={"burst_size": 3},
    stop_when_quiescent=True,
    drain_grace_period=2.0,
    max_time=150.0,
)


def booking_print(result) -> tuple:
    """Row sequence, row count and metrics books of a finished run."""
    metrics = result.metrics
    books = repr((
        metrics.send_timeline,
        sorted(metrics.sends_by_kind.items()),
        sorted(metrics.drops_by_kind.items()),
        sorted(metrics.sends_by_process.items()),
        metrics.total_channel_deliveries,
        metrics.last_send_time,
        result.event_stats.as_dict(),
    ))
    return (
        result.trace.digest(),
        len(result.trace),
        metrics.total_sends,
        metrics.total_drops,
        hashlib.sha256(books.encode("utf-8")).hexdigest()[:16],
    )


def run_variant(variant: str):
    if variant == "default_controller":
        return build_engine(
            LOSSY, controller=DefaultScheduleController()).run()
    return build_engine(LOSSY).run()


#: ``booking_print`` of each variant at the parent of the bulk-booking PR.
PINNED_BOOKS = {
    "plain": (
        "892a46f4018aa84e57eb68b4d2b8fdfaa3e98a37bb3b82472f8a25dba5d006b0",
        1329, 660, 212, "6962e4c075df9418"),
    "default_controller": (
        "892a46f4018aa84e57eb68b4d2b8fdfaa3e98a37bb3b82472f8a25dba5d006b0",
        1329, 660, 212, "6962e4c075df9418"),
}


class TestPinnedBooks:
    @pytest.mark.parametrize("variant", sorted(PINNED_BOOKS))
    def test_books_are_the_pinned_ones(self, variant):
        assert booking_print(run_variant(variant)) == PINNED_BOOKS[variant]

    def test_default_controller_books_what_the_channels_book(self):
        assert PINNED_BOOKS["plain"] == PINNED_BOOKS["default_controller"]

    @pytest.mark.parametrize("variant", sorted(PINNED_BOOKS))
    def test_rows_interleave_per_copy(self, variant):
        """A DROP row directly follows the SEND row of its own copy, and
        the timeline holds one cumulative entry per copy."""
        result = run_variant(variant)
        rows = [(e.category, e.time, e.process, e.detail("dst"),
                 e.detail("payload")) for e in result.trace]
        drops = 0
        for position, row in enumerate(rows):
            if row[0] is TraceCategory.DROP:
                drops += 1
                assert rows[position - 1] == (TraceCategory.SEND, *row[1:])
        metrics = result.metrics
        sends = result.trace.count(TraceCategory.SEND)
        assert drops == metrics.total_drops > 0
        assert sends == metrics.total_sends == len(metrics.send_timeline)
        assert [count for _, count in metrics.send_timeline] == \
            list(range(1, sends + 1))
        assert sum(metrics.drops_by_kind.values()) == drops
        assert sum(metrics.sends_by_kind.values()) == sends


class _Scripted(RecordingController):
    """Plays a fixed list of copy choices, then delivers after 0.1."""

    def __init__(self, script):
        super().__init__("scripted", 0)
        self._script = list(script)

    def _choose_copy(self, engine, src, dst, payload, key, now):
        return self._script.pop(0) if self._script else (DELIVER, 0.1)


def _controlled_engine(script):
    engine = build_engine(
        LOSSY.with_(crashes={}, loss=LossSpec.none()),
        controller=_Scripted(script))
    engine.controller.begin_run(engine)
    return engine


class TestControlledBooking:
    def test_crash_sender_books_exactly_the_copies_planned_before_it(self):
        engine = _controlled_engine([(DELIVER, 0.25), (DROP,), (CRASH,)])
        engine.broadcast_from(2, "m")
        rows = [(e.category, e.process, e.detail("dst"))
                for e in engine.trace]
        assert rows == [
            (TraceCategory.SEND, 2, 0),
            (TraceCategory.SEND, 2, 1),
            (TraceCategory.DROP, 2, 1),
            (TraceCategory.CRASH, 2, None),
        ]
        metrics = engine.metrics
        assert (metrics.total_sends, metrics.total_drops) == (2, 1)
        assert metrics.send_timeline == [(0.0, 1), (0.0, 2)]
        assert dict(metrics.sends_by_process) == {2: 2}
        assert engine.queue.pending_of(EventKind.RECEIVE) == 1
        assert list(engine.queue) == [(0.25, 0, EventKind.RECEIVE, 0, "m")]
        assert engine._crashed == {2}

    def test_decision_in_the_past_raises_with_earlier_copies_queued(self):
        engine = _controlled_engine([(DELIVER, 0.5), (DELIVER, -1.0)])
        engine.queue.schedule(2.0, EventKind.ENGINE_CHECK)
        engine.queue.pop()
        engine._now = 2.0
        with pytest.raises(SchedulingError):
            engine.broadcast_from(0, "m")
        assert engine.queue.pending_of(EventKind.RECEIVE) == 1
        assert len(engine.queue) == 1
