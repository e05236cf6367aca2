"""Unit tests for Algorithm 2 against a fake environment with scripted
failure-detector views."""

import random

from helpers import FakeEnvironment
from repro.core.algorithm2 import QuiescentUrbProcess
from repro.core.messages import LabeledAckPayload, MsgPayload, TaggedMessage
from repro.failure_detectors.atheta import AThetaOracle
from repro.failure_detectors.base import FailureDetectorView, FDPair
from repro.failure_detectors.labels import Label
from repro.failure_detectors.oracle import GroundTruthOracle
from repro.simulation.faults import CrashSchedule

L1, L2, L3 = Label(101), Label(102), Label(103)


def view(*pairs) -> FailureDetectorView:
    return FailureDetectorView([FDPair(label, number) for label, number in pairs])


def make_process(atheta=None, apstar=None, **kwargs):
    env = FakeEnvironment(
        seed=2,
        atheta_view=atheta if atheta is not None else view((L1, 2), (L2, 2)),
        apstar_view=apstar if apstar is not None else view((L1, 2), (L2, 2)),
    )
    return QuiescentUrbProcess(env, **kwargs), env


class TestUrbBroadcast:
    def test_message_enters_msg_set(self):
        process, _ = make_process()
        process.urb_broadcast("hello")
        assert process.pending_retransmissions == 1

    def test_eager_broadcast_sends_msg(self):
        process, env = make_process()
        process.urb_broadcast("hello")
        assert len(env.broadcasts_of_kind("MSG")) == 1


class TestOnMsg:
    def test_ack_carries_current_atheta_labels(self):
        process, env = make_process(atheta=view((L1, 2), (L2, 2)))
        process.on_receive(MsgPayload(TaggedMessage("m", 1)))
        ack = env.broadcasts_of_kind("ACK")[0]
        assert isinstance(ack, LabeledAckPayload)
        assert ack.labels == frozenset({L1, L2})

    def test_repeated_msg_reuses_ack_tag_with_fresh_labels(self):
        process, env = make_process(atheta=view((L1, 2)))
        message = TaggedMessage("m", 1)
        process.on_receive(MsgPayload(message))
        # AΘ view grows between the two receptions (converging detector).
        env.atheta_view = view((L1, 2), (L2, 2))
        process.on_receive(MsgPayload(message))
        acks = env.broadcasts_of_kind("ACK")
        assert acks[0].ack_tag == acks[1].ack_tag
        assert acks[0].labels == frozenset({L1})
        assert acks[1].labels == frozenset({L1, L2})

    def test_repeated_msg_resends_the_same_ack_until_the_view_changes(self):
        process, env = make_process(atheta=view((L1, 2)))
        message = TaggedMessage("m", 1)
        process.on_receive(MsgPayload(message))
        process.on_receive(MsgPayload(message))
        env.atheta_view = view((L1, 2), (L2, 2))
        process.on_receive(MsgPayload(message))
        first, second, third = env.broadcasts_of_kind("ACK")
        assert second is first
        assert third is not first
        assert third.ack_tag == first.ack_tag
        assert third.labels == frozenset({L1, L2})

    def test_faulty_process_resends_the_same_ack_before_it_crashes(self):
        # The prescient AΘ shows a faulty viewer the empty view, asked anew
        # at every reception: it is one shared object, so the identity
        # check on the label set hits and the kept ACK goes out again.
        schedule = CrashSchedule.crash_at(3, {2: 50.0})
        atheta = AThetaOracle(GroundTruthOracle(schedule,
                                                rng=random.Random(0)))
        env = FakeEnvironment(seed=2)
        env.atheta = lambda: atheta.view(2, 1.0)
        process = QuiescentUrbProcess(env)
        message = TaggedMessage("m", 1)
        process.on_receive(MsgPayload(message))
        process.on_receive(MsgPayload(message))
        first, second = env.broadcasts_of_kind("ACK")
        assert second is first
        assert first.labels == frozenset()

    def test_already_delivered_message_not_readded_to_msg_set(self):
        process, env = make_process(atheta=view((L1, 1)))
        message = TaggedMessage("m", 1)
        # Deliver via one ACK whose counter reaches number=1.
        process.on_receive(LabeledAckPayload(message, 50, frozenset({L1})))
        assert len(env.deliveries) == 1
        # Receiving the MSG afterwards must not re-add it for retransmission,
        # but it must still be acknowledged (line 8-12 vs 13-21).
        process.on_receive(MsgPayload(message))
        assert message not in process.state.msg_set
        assert len(env.broadcasts_of_kind("ACK")) == 1


class TestDeliveryCondition:
    def test_delivery_when_some_label_reaches_number(self):
        process, env = make_process(atheta=view((L1, 2), (L2, 2)))
        message = TaggedMessage("m", 1)
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        assert env.deliveries == []
        process.on_receive(LabeledAckPayload(message, 11, frozenset({L1})))
        assert [m.content for m in env.deliveries] == ["m"]

    def test_acks_without_labels_never_trigger_delivery(self):
        process, env = make_process(atheta=view((L1, 2)))
        message = TaggedMessage("m", 1)
        for ack_tag in range(5):
            process.on_receive(LabeledAckPayload(message, ack_tag, frozenset()))
        assert env.deliveries == []

    def test_empty_atheta_view_never_delivers(self):
        process, env = make_process(atheta=FailureDetectorView.empty())
        message = TaggedMessage("m", 1)
        for ack_tag in range(5):
            process.on_receive(LabeledAckPayload(message, ack_tag, frozenset({L1})))
        assert env.deliveries == []

    def test_at_most_once_delivery(self):
        process, env = make_process(atheta=view((L1, 1)))
        message = TaggedMessage("m", 1)
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        process.on_receive(LabeledAckPayload(message, 11, frozenset({L1})))
        assert len(env.deliveries) == 1

    def test_repeated_ack_delivers_once_the_view_is_met(self):
        # The repeat carries the label set on record, so it reconciles
        # nothing; it still delivers, because the new view's number is one
        # the count already meets.
        process, env = make_process(atheta=view((L1, 3)))
        message = TaggedMessage("m", 1)
        labels = frozenset({L1})
        first = LabeledAckPayload(message, 10, labels)
        process.on_receive(first)
        process.on_receive(LabeledAckPayload(message, 11, labels))
        assert env.deliveries == []
        env.atheta_view = view((L1, 2))
        process.on_receive(first)
        assert env.deliveries == [message]
        assert process.state.label_count(message, L1) == 2

    def test_label_changing_repeat_delivers_under_the_view_that_failed(self):
        # Both labels at 1 of 2 fail; acker 11 adding L1 moves only L1's
        # counter, which meets its pair under the unchanged view.
        process, env = make_process(atheta=view((L1, 2), (L2, 2)))
        message = TaggedMessage("m", 1)
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        process.on_receive(LabeledAckPayload(message, 11, frozenset({L2})))
        assert env.deliveries == []
        process.on_receive(LabeledAckPayload(message, 11, frozenset({L1, L2})))
        assert env.deliveries == [message]

    def test_strict_equality_delivers_when_a_counter_drops_to_the_number(self):
        # Under ``==`` a label leaving a set can satisfy a pair: L1 at 3
        # overshoots the new view's number 2 until acker 12 drops it.
        process, env = make_process(atheta=view((L1, 4)), strict_equality=True)
        message = TaggedMessage("m", 1)
        for ack_tag in (10, 11, 12):
            process.on_receive(
                LabeledAckPayload(message, ack_tag, frozenset({L1})))
        env.atheta_view = view((L1, 2))
        process.on_receive(LabeledAckPayload(message, 12, frozenset({L1})))
        assert env.deliveries == []
        process.on_receive(LabeledAckPayload(message, 12, frozenset({L2})))
        assert env.deliveries == [message]

    def test_strict_equality_mode_requires_exact_count(self):
        process, env = make_process(atheta=view((L1, 2)), strict_equality=True)
        message = TaggedMessage("m", 1)
        # three distinct ackers -> counter overshoots 2 between checks only if
        # the check misses the ==2 instant; since the check runs per ACK it
        # still fires exactly at the second ACK.
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        process.on_receive(LabeledAckPayload(message, 11, frozenset({L1})))
        assert len(env.deliveries) == 1

    def test_plain_ack_payload_treated_as_unlabeled(self):
        # Algorithm 2 tolerates Algorithm 1-style ACKs (no labels): they count
        # as ackers but cannot satisfy any (label, number) pair.
        from repro.core.messages import AckPayload

        process, env = make_process(atheta=view((L1, 1)))
        message = TaggedMessage("m", 1)
        process.on_receive(AckPayload(message, 10))
        assert env.deliveries == []
        assert process.state.distinct_ack_count(message) == 1


class TestRetireCondition:
    def test_retire_after_full_coverage(self):
        process, env = make_process(
            atheta=view((L1, 2), (L2, 2)), apstar=view((L1, 2), (L2, 2))
        )
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        # Two distinct ackers, both reporting both correct labels.
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1, L2})))
        process.on_receive(LabeledAckPayload(message, 11, frozenset({L1, L2})))
        assert len(env.deliveries) == 1
        process.on_tick()
        assert process.pending_retransmissions == 0
        assert process.retired_count == 1
        assert env.retirements == [message]

    def test_no_retire_before_delivery(self):
        process, env = make_process(
            atheta=FailureDetectorView.empty(), apstar=view((L1, 1))
        )
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        # AP* condition holds but the message was never delivered (empty AΘ),
        # so it must stay in MSG.
        process.on_tick()
        assert process.pending_retransmissions == 1

    def test_no_retire_when_counts_insufficient(self):
        process, env = make_process(atheta=view((L1, 1)), apstar=view((L1, 2)))
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        assert len(env.deliveries) == 1
        process.on_tick()
        assert process.pending_retransmissions == 1

    def test_no_retire_with_empty_apstar(self):
        process, env = make_process(atheta=view((L1, 1)),
                                    apstar=FailureDetectorView.empty())
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        process.on_tick()
        assert process.pending_retransmissions == 1

    def test_retire_disabled_keeps_retransmitting(self):
        process, env = make_process(
            atheta=view((L1, 1)), apstar=view((L1, 1)), retire_enabled=False
        )
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        process.on_tick()
        assert process.pending_retransmissions == 1
        assert process.retired_count == 0

    def test_strict_retire_requires_exact_label_set(self):
        process, env = make_process(
            atheta=view((L1, 1)), apstar=view((L1, 1)), strict_equality=True
        )
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        # The acker reports an extra label L2 that AP* does not list: strict
        # equality of label sets fails, so no retirement.
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1, L2})))
        process.on_tick()
        assert process.pending_retransmissions == 1

    def test_robust_retire_tolerates_extra_labels(self):
        process, env = make_process(
            atheta=view((L1, 1)), apstar=view((L1, 1)), strict_equality=False
        )
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1, L2})))
        process.on_tick()
        assert process.pending_retransmissions == 0

    def test_tick_broadcasts_before_retiring(self):
        # Paper order: line 54 broadcast, then line 55 check — the retiring
        # tick still sends one last copy.
        process, env = make_process(atheta=view((L1, 1)), apstar=view((L1, 1)))
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        process.on_receive(LabeledAckPayload(message, 10, frozenset({L1})))
        before = len(env.broadcasts_of_kind("MSG"))
        process.on_tick()
        assert len(env.broadcasts_of_kind("MSG")) == before + 1
        assert process.pending_retransmissions == 0


class TestDescribe:
    def test_describe_mentions_mode(self):
        process, _ = make_process(strict_equality=True, retire_enabled=False)
        text = process.describe()
        assert "strict" in text
        assert "no-retire" in text
