"""Unit tests for tags, wire payloads, delivery logs and protocol state."""

import random

import pytest

from repro.core.delivery import DeliveryLog
from repro.core.messages import (
    AckPayload,
    LabeledAckPayload,
    MsgPayload,
    TaggedMessage,
    payload_kind,
)
from repro.core.state import Algorithm1State, Algorithm2State, MessageSet
from repro.core.tags import TagGenerator, collision_probability
from repro.failure_detectors.labels import Label


class TestTagGenerator:
    def test_tags_are_unique(self):
        generator = TagGenerator(random.Random(0))
        tags = [generator.next() for _ in range(500)]
        assert len(set(tags)) == 500

    def test_deterministic_given_rng(self):
        a = TagGenerator(random.Random(5))
        b = TagGenerator(random.Random(5))
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_has_issued(self):
        generator = TagGenerator(random.Random(0))
        tag = generator.next()
        assert generator.has_issued(tag)
        assert not generator.has_issued(tag + 1)

    def test_issued_count(self):
        generator = TagGenerator(random.Random(0))
        for _ in range(7):
            generator.next()
        assert generator.issued_count == 7

    def test_small_space_uniqueness_by_redraw(self):
        generator = TagGenerator(random.Random(0), bits=6)
        tags = [generator.next() for _ in range(40)]
        assert len(set(tags)) == 40

    def test_exhausted_space_raises(self):
        generator = TagGenerator(random.Random(0), bits=2, max_redraws=50)
        for _ in range(4):
            generator.next()
        with pytest.raises(RuntimeError):
            generator.next()

    def test_iterator_protocol(self):
        generator = TagGenerator(random.Random(0))
        iterator = iter(generator)
        assert next(iterator) != next(iterator)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TagGenerator(random.Random(0), bits=0)
        with pytest.raises(ValueError):
            TagGenerator(random.Random(0), max_redraws=0)

    def test_collision_probability_monotone(self):
        assert collision_probability(10) < collision_probability(10_000)

    def test_collision_probability_bounds(self):
        assert collision_probability(0) == 0.0
        assert collision_probability(2 ** 20, bits=8) == 1.0

    def test_collision_probability_validation(self):
        with pytest.raises(ValueError):
            collision_probability(-1)
        with pytest.raises(ValueError):
            collision_probability(5, bits=0)


class TestTaggedMessage:
    def test_equality_and_hash(self):
        assert TaggedMessage("m", 1) == TaggedMessage("m", 1)
        assert TaggedMessage("m", 1) != TaggedMessage("m", 2)
        assert len({TaggedMessage("m", 1), TaggedMessage("m", 1)}) == 1

    def test_rejects_unhashable_content(self):
        with pytest.raises(TypeError):
            TaggedMessage(["list"], 1)

    def test_rejects_non_int_tag(self):
        with pytest.raises(TypeError):
            TaggedMessage("m", "tag")

    def test_describe(self):
        assert "m" in TaggedMessage("m", 0xAB).describe()


class TestPayloads:
    def test_kinds(self):
        message = TaggedMessage("m", 1)
        assert MsgPayload(message).kind == "MSG"
        assert AckPayload(message, 2).kind == "ACK"
        assert LabeledAckPayload(message, 2).kind == "ACK"

    def test_payload_kind_helper(self):
        message = TaggedMessage("m", 1)
        assert payload_kind(MsgPayload(message)) == "MSG"
        assert payload_kind("weird") == "str"

    def test_payloads_hashable_and_equal(self):
        message = TaggedMessage("m", 1)
        assert MsgPayload(message) == MsgPayload(message)
        assert AckPayload(message, 2) == AckPayload(message, 2)
        assert len({MsgPayload(message), MsgPayload(message)}) == 1

    def test_labeled_ack_coerces_labels_to_frozenset(self):
        message = TaggedMessage("m", 1)
        payload = LabeledAckPayload(message, 2, labels={Label(1), Label(2)})
        assert isinstance(payload.labels, frozenset)

    def test_labeled_ack_rejects_non_labels(self):
        message = TaggedMessage("m", 1)
        with pytest.raises(TypeError):
            LabeledAckPayload(message, 2, labels=frozenset({"not a label"}))

    def test_ack_rejects_non_int_tag(self):
        message = TaggedMessage("m", 1)
        with pytest.raises(TypeError):
            AckPayload(message, "x")

    def test_describes(self):
        message = TaggedMessage("m", 1)
        assert "MSG" in MsgPayload(message).describe()
        assert "ACK" in AckPayload(message, 2).describe()
        assert "[" in LabeledAckPayload(message, 2, labels=frozenset({Label(3)})).describe()


class TestDeliveryLog:
    def test_append_and_query(self):
        log = DeliveryLog()
        log.append(TaggedMessage("a", 1))
        log.append(TaggedMessage("b", 2))
        assert len(log) == 2
        assert log.contents() == ["a", "b"]
        assert log.has_content("a")
        assert not log.has_content("c")

    def test_duplicate_delivery_raises(self):
        log = DeliveryLog()
        log.append(TaggedMessage("a", 1))
        with pytest.raises(ValueError):
            log.append(TaggedMessage("a", 1))

    def test_same_content_different_tag_allowed(self):
        log = DeliveryLog()
        log.append(TaggedMessage("a", 1))
        log.append(TaggedMessage("a", 2))
        assert len(log) == 2

    def test_sequence_numbers(self):
        log = DeliveryLog()
        first = log.append(TaggedMessage("a", 1))
        second = log.append(TaggedMessage("b", 2))
        assert (first.sequence, second.sequence) == (0, 1)

    def test_contains_and_position(self):
        log = DeliveryLog()
        message = TaggedMessage("a", 1)
        log.append(message)
        assert message in log
        assert log.position_of("a") == 0
        assert log.position_of("zzz") is None

    def test_content_set(self):
        log = DeliveryLog()
        log.append(TaggedMessage("a", 1))
        log.append(TaggedMessage("b", 2))
        assert log.content_set() == {"a", "b"}

    def test_records_and_messages(self):
        log = DeliveryLog()
        log.append(TaggedMessage("a", 1))
        assert log.records[0].content == "a"
        assert log.messages() == [TaggedMessage("a", 1)]


class TestMessageSet:
    def test_insertion_order_preserved(self):
        ms = MessageSet()
        items = [TaggedMessage(f"m{i}", i) for i in range(5)]
        for item in reversed(items):
            ms.add(item)
        assert ms.as_list() == list(reversed(items))

    def test_add_returns_newness(self):
        ms = MessageSet()
        message = TaggedMessage("m", 1)
        assert ms.add(message) is True
        assert ms.add(message) is False
        assert len(ms) == 1

    def test_discard(self):
        ms = MessageSet([TaggedMessage("m", 1)])
        assert ms.discard(TaggedMessage("m", 1)) is True
        assert ms.discard(TaggedMessage("m", 1)) is False
        assert not ms

    def test_contains_and_iter(self):
        message = TaggedMessage("m", 1)
        ms = MessageSet([message])
        assert message in ms
        assert list(ms) == [message]


class TestAlgorithm1State:
    def test_my_ack_immutable_once_set(self):
        state = Algorithm1State()
        message = TaggedMessage("m", 1)
        state.set_my_ack(message, 42)
        state.set_my_ack(message, 42)  # idempotent re-set is fine
        with pytest.raises(ValueError):
            state.set_my_ack(message, 43)

    def test_record_ack_counts_distinct(self):
        state = Algorithm1State()
        message = TaggedMessage("m", 1)
        assert state.record_ack(message, 1) is True
        assert state.record_ack(message, 1) is False
        assert state.record_ack(message, 2) is True
        assert state.distinct_ack_count(message) == 2

    def test_distinct_ack_count_unknown_message(self):
        assert Algorithm1State().distinct_ack_count(TaggedMessage("x", 9)) == 0

    def test_delivered_tracking(self):
        state = Algorithm1State()
        message = TaggedMessage("m", 1)
        assert not state.is_delivered(message)
        state.mark_delivered(message)
        assert state.is_delivered(message)

    def test_summary_counts(self):
        state = Algorithm1State()
        message = TaggedMessage("m", 1)
        state.add_message(message)
        state.set_my_ack(message, 7)
        state.record_ack(message, 7)
        summary = state.summary()
        assert summary["msg"] == 1
        assert summary["my_ack"] == 1
        assert summary["all_ack"] == 1


class TestAlgorithm2State:
    def test_new_ack_increments_counters(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        labels = frozenset({Label(1), Label(2)})
        assert state.record_labeled_ack(message, 10, labels) is None
        assert state.label_count(message, Label(1)) == 1
        assert state.label_count(message, Label(2)) == 1
        assert state.distinct_ack_count(message) == 1

    def test_repeated_identical_ack_is_noop(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        labels = frozenset({Label(1)})
        state.record_labeled_ack(message, 10, labels)
        assert state.record_labeled_ack(message, 10, labels) is labels
        assert state.label_count(message, Label(1)) == 1

    def test_repeated_ack_with_more_labels(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset({Label(1)}))
        state.record_labeled_ack(message, 10, frozenset({Label(1), Label(2)}))
        assert state.label_count(message, Label(1)) == 1
        assert state.label_count(message, Label(2)) == 1

    def test_repeated_ack_with_fewer_labels(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset({Label(1), Label(2)}))
        state.record_labeled_ack(message, 10, frozenset({Label(1)}))
        assert state.label_count(message, Label(1)) == 1
        assert state.label_count(message, Label(2)) == 0

    def test_counts_across_distinct_ackers(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset({Label(1)}))
        state.record_labeled_ack(message, 11, frozenset({Label(1)}))
        state.record_labeled_ack(message, 12, frozenset({Label(1), Label(2)}))
        assert state.label_count(message, Label(1)) == 3
        assert state.label_count(message, Label(2)) == 1

    def test_labels_union(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset({Label(1)}))
        state.record_labeled_ack(message, 11, frozenset({Label(2)}))
        assert state.labels_union(message) == frozenset({Label(1), Label(2)})
        assert state.labels_union(TaggedMessage("x", 9)) == frozenset()

    def test_ack_tags_for(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset())
        state.record_labeled_ack(message, 11, frozenset())
        assert state.ack_tags_for(message) == frozenset({10, 11})

    def test_counter_invariant_checker(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset({Label(1), Label(2)}))
        state.record_labeled_ack(message, 11, frozenset({Label(2)}))
        state.record_labeled_ack(message, 10, frozenset({Label(2)}))
        assert state.check_counter_invariant(message)

    def test_counter_for_returns_copy(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset({Label(1)}))
        counters = state.counter_for(message)
        counters[Label(1)] = 999
        assert state.label_count(message, Label(1)) == 1

    def test_summary_extended(self):
        state = Algorithm2State()
        message = TaggedMessage("m", 1)
        state.record_labeled_ack(message, 10, frozenset({Label(1)}))
        summary = state.summary()
        assert summary["ack_records"] == 1
        assert summary["counted_labels"] == 1
