"""Property-based tests (hypothesis) for the core data structures:
Algorithm 2's label bookkeeping, the ordered message set and tag generation."""

import random

from hypothesis import given, settings, strategies as st

from helpers import FakeEnvironment
from repro.core.algorithm2 import QuiescentUrbProcess
from repro.core.messages import AckPayload, LabeledAckPayload, TaggedMessage
from repro.core.state import Algorithm2State, MessageSet
from repro.core.tags import TagGenerator
from repro.failure_detectors.base import FailureDetectorView, FDPair
from repro.failure_detectors.labels import Label

# Small universes keep shrinking effective while still covering the
# interesting interleavings.
LABELS = [Label(i) for i in range(1, 6)]
ACK_TAGS = list(range(1, 6))
MESSAGE = TaggedMessage("m", 1)

#: Shared label-set objects, as detector views hand them out.
LABEL_SETS = [frozenset(), frozenset(LABELS[:1]), frozenset(LABELS[:3]),
              frozenset(LABELS[2:]), frozenset(LABELS)]

#: View objects as detectors hand them out: shared between changes, and
#: (the last) an equal but distinct object, as a detector that does not
#: intern its views returns (it costs only the partial re-check).
VIEWS = [
    FailureDetectorView([FDPair(LABELS[0], 3), FDPair(LABELS[2], 3)]),
    FailureDetectorView([FDPair(LABELS[0], 2)]),
    FailureDetectorView([FDPair(label, 4) for label in LABELS]),
    FailureDetectorView([FDPair(LABELS[3], 1), FDPair(LABELS[4], 2)]),
    FailureDetectorView([FDPair(LABELS[0], 3), FDPair(LABELS[2], 3)]),
]

ack_event = st.tuples(
    st.sampled_from(ACK_TAGS),
    st.frozensets(st.sampled_from(LABELS), max_size=len(LABELS)),
)


class TestAlgorithm2StateProperties:
    @given(st.lists(ack_event, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_counter_always_matches_recount(self, events):
        """label_counter[(m,tag), label] must always equal the number of
        recorded ack entries currently carrying that label."""
        state = Algorithm2State()
        for ack_tag, labels in events:
            state.record_labeled_ack(MESSAGE, ack_tag, labels)
            assert state.check_counter_invariant(MESSAGE)

    @given(st.lists(ack_event, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_counts_bounded_by_distinct_ackers(self, events):
        state = Algorithm2State()
        for ack_tag, labels in events:
            state.record_labeled_ack(MESSAGE, ack_tag, labels)
        distinct = state.distinct_ack_count(MESSAGE)
        for label in LABELS:
            assert 0 <= state.label_count(MESSAGE, label) <= distinct

    @given(st.lists(ack_event, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_final_state_depends_only_on_last_labels_per_acker(self, events):
        """Replaying only each acker's *last* ACK yields the same counters —
        the reconciliation of repeated ACKs is history-independent."""
        full = Algorithm2State()
        for ack_tag, labels in events:
            full.record_labeled_ack(MESSAGE, ack_tag, labels)
        last_only = Algorithm2State()
        last_by_acker = {}
        for ack_tag, labels in events:
            last_by_acker[ack_tag] = labels
        for ack_tag, labels in last_by_acker.items():
            last_only.record_labeled_ack(MESSAGE, ack_tag, labels)
        assert full.counter_for(MESSAGE) == last_only.counter_for(MESSAGE)
        assert full.labels_union(MESSAGE) == last_only.labels_union(MESSAGE)

    @given(st.lists(ack_event, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_union_is_union_of_current_records(self, events):
        state = Algorithm2State()
        for ack_tag, labels in events:
            state.record_labeled_ack(MESSAGE, ack_tag, labels)
        expected = set()
        for record in state.ack_records.get(MESSAGE, {}).values():
            expected |= record.labels
        assert state.labels_union(MESSAGE) == frozenset(expected)

    @given(st.lists(st.tuples(
        st.sampled_from(ACK_TAGS),
        st.none() | st.sampled_from(LABEL_SETS),
        st.booleans(),
    ), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_set_counts_match_records_through_the_handler(self, events):
        """ACKs fed to Algorithm 2 itself — first, repeated (the very label
        set object, or an equal copy), label-changing and unlabelled — keep
        the per-set counts equal to what the records say, before and after
        the message is delivered."""
        env = FakeEnvironment(
            atheta_view=FailureDetectorView([FDPair(LABELS[0], 2)]))
        process = QuiescentUrbProcess(env)
        state = process.state
        for ack_tag, labels, copy in events:
            if labels is None:
                payload = AckPayload(MESSAGE, ack_tag)
            else:
                payload = LabeledAckPayload(
                    MESSAGE, ack_tag, frozenset(list(labels)) if copy else labels)
            process.on_receive(payload)
            records = state.ack_records.get(MESSAGE, {})
            recount = {}
            for record in records.values():
                for label in record.labels:
                    recount[label] = recount.get(label, 0) + 1
            assert state.counter_for(MESSAGE) == recount
            assert state.labels_union(MESSAGE) == frozenset().union(
                *(record.labels for record in records.values()))
            counts = state.label_sets.get(MESSAGE, {}).values()
            assert sum(counts) == len(records)
            assert 0 not in counts

    @given(st.booleans(), st.lists(st.one_of(
        st.tuples(st.sampled_from(ACK_TAGS), st.sampled_from(LABEL_SETS)),
        st.sampled_from(range(len(VIEWS))),
    ), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_delivery_is_the_full_condition_at_some_ack(self, strict, steps):
        """The handler re-checks only the labels an ACK moved while the view
        that last failed is unchanged; it must still deliver at exactly the
        first ACK after which the paper's condition holds in full."""
        env = FakeEnvironment(atheta_view=VIEWS[0])
        process = QuiescentUrbProcess(env, strict_equality=strict)
        records = {}
        expected = False
        for step in steps:
            if isinstance(step, int):
                env.atheta_view = VIEWS[step]
                continue
            ack_tag, labels = step
            process.on_receive(LabeledAckPayload(MESSAGE, ack_tag, labels))
            records[ack_tag] = labels
            for pair in env.atheta_view:
                count = sum(pair.label in carried
                            for carried in records.values())
                if count == pair.number or (not strict
                                            and count > pair.number):
                    expected = True
            assert process.state.is_delivered(MESSAGE) == expected


class TestMessageSetProperties:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_behaves_like_ordered_set(self, operations):
        """MessageSet must behave exactly like a dict-backed model: same
        membership and same insertion order at every step."""
        ms = MessageSet()
        model: dict[TaggedMessage, None] = {}
        for is_add, key in operations:
            message = TaggedMessage("m", key)
            if is_add:
                assert ms.add(message) == (message not in model)
                model.setdefault(message, None)
            else:
                assert ms.discard(message) == (message in model)
                model.pop(message, None)
            assert ms.as_list() == list(model)
            assert len(ms) == len(model)


class TestTagProperties:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_tags_always_unique_within_generator(self, seed, count):
        generator = TagGenerator(random.Random(seed))
        tags = [generator.next() for _ in range(count)]
        assert len(set(tags)) == count

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_generators_with_same_seed_agree(self, seed):
        a = TagGenerator(random.Random(seed))
        b = TagGenerator(random.Random(seed))
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]

    @given(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_cross_process_tags_distinct_with_distinct_streams(self, seed_a, seed_b):
        """Distinct processes draw from distinct substreams; their tag sets
        must not collide for realistic counts (64-bit tags)."""
        if seed_a == seed_b:
            return
        a = TagGenerator(random.Random(("proc", seed_a).__hash__()))
        b = TagGenerator(random.Random(("proc", seed_b).__hash__()))
        tags_a = {a.next() for _ in range(50)}
        tags_b = {b.next() for _ in range(50)}
        assert not tags_a & tags_b
