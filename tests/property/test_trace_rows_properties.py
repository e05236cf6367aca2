"""The trace recorder's row store answers every query exactly as a recorder
fed the same events one by one through ``record(**details)`` does.

Per-copy channel records are kept as bare rows and only become
``TraceEvent`` objects on request, and a broadcast's SEND / DROP records
are one row until something reads by position (see
``repro.simulation.tracing``); these properties make sure nobody can tell —
on generated record sequences that mix broadcast rows, bare rows and
ready-made events at every recording level, with reads in the middle and a
pickle round trip, and on the traces of generated scenario runs.  The
metrics collector's one mark per broadcast gets the same treatment against
a per-copy send timeline.
"""

import pickle
from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.quiescence import send_histogram
from repro.experiments.config import Scenario
from repro.experiments.runner import build_engine
from repro.network.loss import LossSpec
from repro.simulation.metrics import MetricsCollector
from repro.simulation.tracing import TraceCategory, TraceLevel, TraceRecorder

N_PROCESSES = 4
CHANNEL = (TraceCategory.SEND, TraceCategory.DROP,
           TraceCategory.CHANNEL_DELIVER)


def same_answers(trace: TraceRecorder, reference: TraceRecorder) -> None:
    """Assert *trace* and *reference* agree on the whole query surface."""

    def heads(recorder):
        return {
            category: (
                recorder.count(category),
                recorder.first_time(category),
                recorder.last_time(category),
                recorder.timeline(category, 0.75),
            )
            for category in TraceCategory
        }

    def ordered_dicts(recorder):
        return [list(entry.items()) for entry in recorder.to_dicts()]

    rows = len(trace._rows)
    assert len(trace) == len(reference)
    # Head-only queries first, while every broadcast is still one row and
    # every other channel record a bare one.
    assert heads(trace) == heads(reference)
    assert list(trace.send_runs()) == list(reference.send_runs())
    assert list(trace.sends()) == list(reference.sends())
    assert len(trace._rows) == rows
    events = reference.events
    for category in (None, *TraceCategory):
        for process in (None, *range(N_PROCESSES)):
            expected = [
                event for event in events
                if (category is None or event.category is category)
                and (process is None or event.process == process)
            ]
            assert trace.filter(category=category, process=process) == expected
            assert (reference.filter(category=category, process=process)
                    == expected)
    for category, answers in heads(trace).items():
        times = [event.time for event in events if event.category is category]
        assert answers[:3] == (len(times), *(times[:1] or [None]),
                               *(times[-1:] or [None]))

    def only_acks(event):
        return event.detail("kind") == "ACK"

    assert (trace.filter(predicate=only_acks)
            == reference.filter(predicate=only_acks))
    # ... and again over rows that now carry their events.
    assert heads(trace) == heads(reference)
    assert list(trace.send_runs()) == list(reference.send_runs())
    assert list(trace.sends()) == list(reference.sends())
    assert list(trace) == list(reference)
    assert trace.events == reference.events
    assert ordered_dicts(trace) == ordered_dicts(reference)
    assert trace.digest() == reference.digest()


times = st.floats(0.0, 20.0, allow_nan=False)
processes = st.integers(0, N_PROCESSES - 1)
kinds = st.sampled_from(["MSG", "ACK"])
payloads = st.sampled_from([None, "m0", "m1", ("m", 7)])
#: A broadcast's fates, one per destination up to a controller's cut.
fates = st.lists(st.none() | times, max_size=N_PROCESSES)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("record"), times, st.sampled_from(list(TraceCategory)),
                  processes, kinds, payloads, processes, st.booleans()),
        st.tuples(st.just("broadcast"), times, processes, kinds, payloads,
                  fates),
        st.tuples(st.just("read")),
    ),
    max_size=60,
)


def record_one(trace, reference, time, category, process, kind, payload, dst,
               as_row):
    """Record one event in both: through ``record`` in *reference*, as a
    bare row in *trace* when it is a channel record and *as_row*."""
    if category not in CHANNEL:
        details = {"content": payload}
    elif category is TraceCategory.CHANNEL_DELIVER:
        details = {"kind": kind, "payload": payload}
    else:
        details = {"dst": dst, "kind": kind, "payload": payload}
    reference.record(time, category, process, **details)
    if category in CHANNEL and as_row:
        trace.record_copy(time, category, process, kind, payload,
                          details.get("dst"))
    else:
        trace.record(time, category, process, **details)


@given(steps=steps, level=st.sampled_from(list(TraceLevel)),
       enabled=st.booleans())
@settings(max_examples=200, deadline=None)
def test_rows_and_recorded_events_answer_alike(steps, level, enabled):
    trace = TraceRecorder(enabled=enabled, level=level)
    reference = TraceRecorder(enabled=enabled, level=level)
    for step in steps:
        if step[0] == "record":
            record_one(trace, reference, *step[1:])
        elif step[0] == "broadcast":
            _, time, process, kind, payload, times = step
            trace.record_broadcast(time, process, kind, payload, list(times))
            for dst, deliver_time in enumerate(times):
                reference.record(time, TraceCategory.SEND, process, dst=dst,
                                 kind=kind, payload=payload)
                if deliver_time is None:
                    reference.record(time, TraceCategory.DROP, process,
                                     dst=dst, kind=kind, payload=payload)
        else:
            # A read by position in the middle of recording expands what
            # is there; later broadcasts are rows again.
            assert len(trace) == len(reference)
            assert list(trace.send_runs()) == list(reference.send_runs())
            assert list(trace) == list(reference)
    copy = pickle.loads(pickle.dumps(trace))
    assert len(copy._rows) == len(trace._rows)
    same_answers(copy, reference)
    same_answers(trace, reference)


broadcasts = st.lists(
    st.tuples(st.floats(0.0, 3.0, allow_nan=False), processes, kinds,
              st.integers(0, 2 * N_PROCESSES)),
    max_size=30,
)


@given(broadcasts=broadcasts,
       queries=st.lists(st.floats(-1.0, 60.0, allow_nan=False), max_size=10),
       window=st.floats(0.25, 8.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_send_marks_answer_as_a_per_copy_timeline(broadcasts, queries, window):
    metrics = MetricsCollector()
    timeline, time = [], 0.0
    for delta, src, kind, copies in broadcasts:
        time += delta  # sends are booked in time order, ties included
        metrics.on_send_many(time, src, kind, copies)
        for _ in range(copies):
            timeline.append((time, len(timeline) + 1))
    assert metrics.send_timeline == timeline
    assert metrics.total_sends == len(timeline)
    for at in queries + [t for t, _ in timeline]:
        assert metrics.cumulative_sends_at(at) == sum(
            1 for t, _ in timeline if t <= at)
    # send_histogram falls back to the metrics when the trace has no sends.
    result = SimpleNamespace(trace=TraceRecorder(enabled=False),
                             metrics=metrics)
    expected = []
    if timeline:
        counts = [0] * (int(max(t for t, _ in timeline) // window) + 1)
        for t, _ in timeline:
            counts[int(t // window)] += 1
        expected = [(i * window, count) for i, count in enumerate(counts)]
    assert send_histogram(result, window) == expected


@st.composite
def scenarios(draw):
    algorithm = draw(st.sampled_from(["algorithm1", "algorithm2"]))
    loss = draw(st.floats(0.0, 0.4, allow_nan=False))
    crashed = draw(st.booleans())
    return Scenario(
        name="prop-trace",
        algorithm=algorithm,
        n_processes=N_PROCESSES,
        crashes={N_PROCESSES - 1: draw(st.floats(0.0, 4.0))} if crashed else {},
        loss=LossSpec.bernoulli(loss) if loss > 0 else LossSpec.none(),
        workload="burst",
        metadata={"burst_size": draw(st.integers(1, 3))},
        trace_ticks=draw(st.booleans()),
        max_time=8.0,
        seed=draw(st.integers(0, 10_000)),
    )


@given(scenario=scenarios())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_a_run_trace_answers_as_its_events_recorded_one_by_one(scenario):
    trace = build_engine(scenario).run().trace
    # The run is deterministic: a second one supplies the events, so the
    # trace under test is queried with every channel record still a row.
    reference = TraceRecorder()
    for event in build_engine(scenario).run().trace:
        reference.record(event.time, event.category, event.process,
                         **event.details)
    assert trace.count(TraceCategory.SEND) > 0
    same_answers(trace, reference)
