"""The trace recorder's row store answers every query exactly as a recorder
fed the same events one by one through ``record(**details)`` does.

Per-copy channel records are kept as bare rows and only become
``TraceEvent`` objects on request (see ``repro.simulation.tracing``); these
properties make sure nobody can tell — on generated record sequences that
mix rows and ready-made events at every recording level, and on the traces
of generated scenario runs.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.config import Scenario
from repro.experiments.runner import build_engine
from repro.network.loss import LossSpec
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

    assert len(trace) == len(reference)
    # Head-only queries first, while every channel record is still a row.
    assert heads(trace) == heads(reference)
    assert list(trace.sends()) == list(reference.sends())
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
    assert list(trace.sends()) == list(reference.sends())
    assert list(trace) == list(reference)
    assert trace.events == reference.events
    assert ordered_dicts(trace) == ordered_dicts(reference)
    assert trace.digest() == reference.digest()


records = st.lists(
    st.tuples(
        st.floats(0.0, 20.0, allow_nan=False),
        st.sampled_from(list(TraceCategory)),
        st.integers(0, N_PROCESSES - 1),
        st.sampled_from(["MSG", "ACK"]),
        st.sampled_from([None, "m0", "m1", ("m", 7)]),
        st.integers(0, N_PROCESSES - 1),
        st.booleans(),
    ),
    max_size=60,
)


@given(
    records=records,
    level=st.sampled_from(list(TraceLevel)),
    enabled=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_rows_and_recorded_events_answer_alike(records, level, enabled):
    trace = TraceRecorder(enabled=enabled, level=level)
    reference = TraceRecorder(enabled=enabled, level=level)
    for time, category, process, kind, payload, dst, as_row in records:
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
    same_answers(trace, reference)


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
