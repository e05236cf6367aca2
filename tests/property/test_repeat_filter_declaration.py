"""Property-based check of ``repeated_ack_is_noop_once_delivered``.

The vectorized engine's repeat filter drops ACK receptions on the strength
of a *declaration* the protocol classes make: once a process has
URB-delivered ``m``, receiving again the very ACK payload it last handled
for ``(m, tag_ack)`` changes no state, draws no randomness and sends
nothing.  These tests check the statement against the handlers themselves
instead of trusting it — Hypothesis drives a process through MSG/ACK/tick
sequences with repeated tags, changing label sets and changing detector
views, and after every step re-feeds the last-handled payload of every cell
of every delivered message — and show, with a subclass that declares the
property without having it, both that the check has teeth and that the
engines really do diverge when the declaration is false.

Both paper algorithms also apply the declaration themselves: each keeps a
set, ``_settled``, of ACK payloads it answers with one set lookup.  A
re-feed of a settled payload returns at that set, so the checks below also
take each settled payload out of it first and re-feed it through the full
handler, and a subclass that never takes a payload out of the set shows
that this check has teeth too.
"""

from hypothesis import given, settings, strategies as st
import pytest

from helpers import FakeEnvironment
from repro.core.algorithm1 import MajorityUrbProcess
from repro.core.algorithm2 import QuiescentUrbProcess
from repro.core.messages import (
    AckPayload,
    LabeledAckPayload,
    MsgPayload,
    TaggedMessage,
)
from repro.experiments.parity import (
    compare_engines,
    parity_cases,
    run_fingerprint,
)
from repro.failure_detectors.base import FailureDetectorView, FDPair
from repro.failure_detectors.labels import Label
from repro.registry import AlgorithmSpec, algorithms

# Small universes: repeated tags, colliding cells and label sets that come
# and go are the interesting interleavings, and they need few symbols.
MESSAGES = [TaggedMessage(f"m{i}", 100 + i) for i in range(3)]
ACK_TAGS = [1, 2, 3, 4]
LABELS = [Label(i) for i in range(1, 5)]
VIEWS = [
    FailureDetectorView.empty(),
    FailureDetectorView([FDPair(LABELS[0], 1)]),
    FailureDetectorView([FDPair(LABELS[0], 2), FDPair(LABELS[1], 2)]),
    FailureDetectorView([FDPair(label, 3) for label in LABELS]),
    FailureDetectorView([FDPair(LABELS[2], 0)]),
]

label_sets = st.frozensets(st.sampled_from(LABELS), max_size=len(LABELS))
events = st.lists(
    st.one_of(
        st.tuples(st.just("msg"), st.sampled_from(MESSAGES)),
        st.tuples(st.just("ack"), st.sampled_from(MESSAGES),
                  st.sampled_from(ACK_TAGS), st.none() | label_sets),
        st.tuples(st.just("atheta"), st.sampled_from(VIEWS)),
        st.tuples(st.just("apstar"), st.sampled_from(VIEWS)),
        st.tuples(st.just("tick")),
        st.tuples(st.just("urb"), st.sampled_from(["a", "b"])),
    ),
    max_size=60,
)

M = MESSAGES[0]
A = frozenset(LABELS[:2])
B = frozenset(LABELS[:1])
#: Delivers ``M`` under the starting view ``VIEWS[2]`` on every algorithm
#: below.  Few short drawn sequences deliver anything, so half the draws
#: start with it, and their cells' later moves meet settled payloads.
DELIVERING = [("msg", M)] + [("ack", M, tag, A) for tag in (1, 2, 3)]
sequences = events | events.map(lambda drawn: DELIVERING + drawn)

PROCESSES = {
    "algorithm1": lambda env: MajorityUrbProcess(env, 5),
    "algorithm2": lambda env: QuiescentUrbProcess(env),
    "algorithm2-strict": lambda env: QuiescentUrbProcess(
        env, strict_equality=True),
}


def observable(process, env):
    """Everything a reception could move: the dict state itself (order
    included), its summary, the kept ACKs, the delivery log, what reached
    the environment and the process RNG."""
    state = process.state
    snapshot = {
        "summary": state.summary(),
        "msg_set": state.msg_set.as_list(),
        "delivered": state.delivered.as_list(),
        "my_ack": list(state.my_ack.items()),
        "all_ack": [(m, sorted(tags)) for m, tags in state.all_ack.items()],
        "log": [record.message for record in process.delivery_log],
        "env": (len(env.broadcasts), len(env.deliveries),
                len(env.retirements)),
        "rng": env.random.getstate(),
    }
    # The ACK each algorithm keeps per message and re-sends on a repeated
    # MSG: the object itself, not only an equal one.
    snapshot["last_ack"] = [(m, ack, id(ack))
                            for m, ack in process._last_ack.items()]
    if hasattr(state, "ack_records"):
        snapshot["ack_records"] = [
            (m, [(tag, record.labels) for tag, record in records.items()])
            for m, records in state.ack_records.items()]
        snapshot["label_sets"] = [
            (m, list(sets.items())) for m, sets in state.label_sets.items()]
        snapshot["counters"] = [
            (m, state.counter_for(m)) for m in state.label_sets]
        snapshot["retired"] = process.retired_count
        snapshot["failed_under"] = list(process._failed_under.items())
    return snapshot


def apply(process, env, event):
    """Apply one drawn *event*; the payload handled, if it was an ACK."""
    kind = event[0]
    if kind == "msg":
        process.on_receive(MsgPayload(event[1]))
    elif kind == "ack":
        _, message, tag, labels = event
        payload = (AckPayload(message, tag) if labels is None
                   else LabeledAckPayload(message, tag, labels))
        process.on_receive(payload)
        return payload
    elif kind == "atheta":
        env.atheta_view = event[1]
    elif kind == "apstar":
        env.apstar_view = event[1]
    elif kind == "tick":
        process.on_tick()
    else:
        process.urb_broadcast(event[1])
    return None


def check_settled(process, env):
    """Re-feed every settled payload through the full handler: it must
    leave :func:`observable` where it was and be settled again."""
    settled = set(process._settled)
    for payload in settled:
        process._settled.remove(payload)
        before = observable(process, env)
        process.on_receive(payload)
        assert observable(process, env) == before, payload
        assert process._settled == settled, payload


def check_declaration(build, sequence):
    """Drive one process through *sequence*; after every step, re-feeding
    the last-handled payload of any cell of a delivered message must leave
    :func:`observable` exactly where it was, and so must re-feeding every
    settled payload (:func:`check_settled`).  Returns the process."""
    env = FakeEnvironment(seed=7, atheta_view=VIEWS[2], apstar_view=VIEWS[2])
    process = build(env)
    assert process.repeated_ack_is_noop_once_delivered
    last_handled = {}
    for event in sequence:
        payload = apply(process, env, event)
        if payload is not None:
            last_handled[payload.message, payload.ack_tag] = payload
        for (message, _), payload in last_handled.items():
            if process.state.is_delivered(message):
                before = observable(process, env)
                process.on_receive(payload)
                assert observable(process, env) == before, payload
        check_settled(process, env)
    return process


@pytest.mark.parametrize("name", sorted(PROCESSES))
@given(sequence=sequences)
@settings(max_examples=150, deadline=None)
def test_repeated_ack_is_a_noop_once_delivered(name, sequence):
    check_declaration(PROCESSES[name], sequence)


def test_sequences_reach_deliveries_under_changing_labels_and_views():
    # The property is vacuous before the first delivery: pin one sequence
    # per protocol that delivers, then changes a cell's label set and the
    # view, so the re-feeds above are known to have happened on real state.
    m = MESSAGES[0]
    sequence = [
        ("msg", m),
        ("ack", m, 1, frozenset(LABELS[:2])),
        ("ack", m, 2, frozenset(LABELS[:1])),
        ("ack", m, 3, None),
        ("ack", m, 2, frozenset(LABELS[:2])),
        ("atheta", VIEWS[3]),
        ("ack", m, 1, frozenset(LABELS)),
        ("tick",),
        ("ack", m, 1, frozenset(LABELS[:2])),
    ]
    for build in PROCESSES.values():
        # Delivered by the third ACK at the latest, so every later step —
        # the relabelled cells, the new view, the tick — is re-fed against.
        assert check_declaration(build, sequence[:4]).state.is_delivered(m)
        check_declaration(build, sequence)


#: Delivered by the second ACK under ``VIEWS[2]``; then acknowledger 1 goes
#: A, B, A and acknowledger 3 goes unlabelled, labelled, unlabelled, each
#: first change after its earlier payload was settled.
A_B_A = [
    ("msg", M),
    ("ack", M, 1, A),
    ("ack", M, 2, A),
    ("ack", M, 1, A),
    ("ack", M, 3, None),
    ("ack", M, 1, B),
    ("ack", M, 3, B),
    ("ack", M, 1, A),
    ("ack", M, 3, None),
]


@pytest.mark.parametrize("name", ["algorithm2", "algorithm2-strict"])
def test_a_settled_payload_received_after_a_move_moves_the_set_back(name):
    env = FakeEnvironment(seed=7, atheta_view=VIEWS[2], apstar_view=VIEWS[2])
    process = PROCESSES[name](env)
    sets = []
    for event in A_B_A:
        apply(process, env, event)
        sets.append(dict(process.state.label_sets.get(M, {})))
    assert process.state.is_delivered(M)
    assert sets[4] == {A: 2, frozenset(): 1}
    assert sets[6] == {A: 1, B: 2}
    assert sets[8] == sets[4]
    check_declaration(PROCESSES[name], A_B_A)


# --------------------------------------------------------------------------- #
# negative controls: a declaration that does not hold, a set never emptied
# --------------------------------------------------------------------------- #
class GossipingMajorityUrb(MajorityUrbProcess):
    """Algorithm 1, except that it counts ACK receptions and passes every
    fifth one on — repeats included, so the inherited declaration is
    false for it."""

    def __init__(self, env, n_processes):
        super().__init__(env, n_processes)
        self.acks_received = 0

    def _on_ack(self, payload):
        super()._on_ack(payload)
        self.acks_received += 1
        if self.acks_received % 5 == 0:
            self.env.broadcast(payload)


class HonestGossipingMajorityUrb(GossipingMajorityUrb):
    repeated_ack_is_noop_once_delivered = False


def test_the_check_rejects_a_false_declaration():
    m = MESSAGES[0]
    sequence = [("ack", m, tag, None) for tag in (1, 2, 3)] * 3
    with pytest.raises(AssertionError):
        check_declaration(lambda env: GossipingMajorityUrb(env, 5), sequence)


def _gossip_report(process_class):
    spec = AlgorithmSpec(
        name="gossiping_test",
        factory=lambda scenario, index, env: process_class(
            env, scenario.n_processes),
        requires_majority=True,
    )
    (scenario,) = (case for case in parity_cases()
                   if case.name == "algorithm1")
    with algorithms.scoped(spec):
        return compare_engines(scenario.with_(algorithm="gossiping_test"))


def test_a_false_declaration_breaks_engine_parity():
    # Filtered, the vectorized engine never shows the process the repeats
    # it would have counted: the runs diverge and the comparison says so.
    report = _gossip_report(GossipingMajorityUrb)
    assert report.runs[1].execution.consume_mode == "batched"
    assert not report.ok
    assert "metrics" in report.mismatched
    # The same protocol without the declaration is replayed entry by entry
    # and is bit-identical again.
    report = _gossip_report(HonestGossipingMajorityUrb)
    assert report.runs[1].execution.consume_mode == "boxed"
    assert report.ok, report.diff()


class _Unforgetting(set):
    """A settled set that keeps what it is told to discard."""

    def discard(self, item):
        pass


class NeverEvictingQuiescentUrb(QuiescentUrbProcess):
    """Algorithm 2, except that a payload once settled stays settled after
    its acknowledger moved to another label set."""

    def __init__(self, env, **options):
        super().__init__(env, **options)
        self._settled = _Unforgetting()


def test_the_check_rejects_a_settled_set_that_is_never_emptied():
    with pytest.raises(AssertionError):
        check_declaration(NeverEvictingQuiescentUrb, A_B_A)


def test_a_settled_set_that_is_never_emptied_changes_a_whole_run():
    (case,) = (case for case in parity_cases()
               if case.name == "staggered-learning")
    spec = AlgorithmSpec(
        name="never_evicting_test",
        factory=lambda scenario, index, env: NeverEvictingQuiescentUrb(env),
        supports_quiescence=True,
        uses_failure_detectors=True,
    )
    with algorithms.scoped(spec):
        mutant = run_fingerprint(
            case.with_(algorithm="never_evicting_test"), "reference")
    assert mutant.fingerprint != run_fingerprint(case, "reference").fingerprint
