"""Unit tests for Algorithm 1 against a fake (recorded) environment.

Each test exercises one branch of the paper's pseudocode without the
simulator: the fake environment records what the process broadcasts and the
test feeds receptions directly.
"""

import pytest

from helpers import FakeEnvironment
from repro.core.algorithm1 import MajorityUrbProcess
from repro.core.messages import AckPayload, MsgPayload, TaggedMessage


def make_process(n=5, **kwargs):
    env = FakeEnvironment(seed=1)
    process = MajorityUrbProcess(env, n_processes=n, **kwargs)
    return process, env


class TestConstruction:
    def test_default_majority_threshold(self):
        process, _ = make_process(n=5)
        assert process.majority_threshold == 3

    def test_explicit_threshold(self):
        process, _ = make_process(n=5, majority_threshold=4)
        assert process.majority_threshold == 4

    def test_rejects_bad_parameters(self):
        env = FakeEnvironment()
        with pytest.raises(ValueError):
            MajorityUrbProcess(env, n_processes=0)
        with pytest.raises(ValueError):
            MajorityUrbProcess(env, n_processes=3, majority_threshold=0)

    def test_name_and_describe(self):
        process, _ = make_process()
        assert process.name == "algorithm1"
        assert "majority=3" in process.describe()


class TestUrbBroadcast:
    def test_adds_tagged_message_to_msg_set(self):
        process, _ = make_process()
        process.urb_broadcast("hello")
        assert process.pending_retransmissions == 1
        message = process.state.msg_set.as_list()[0]
        assert message.content == "hello"

    def test_eager_first_broadcast_sends_msg(self):
        process, env = make_process()
        process.urb_broadcast("hello")
        msgs = env.broadcasts_of_kind("MSG")
        assert len(msgs) == 1
        assert msgs[0].message.content == "hello"

    def test_without_eager_broadcast_nothing_sent(self):
        process, env = make_process(eager_first_broadcast=False)
        process.urb_broadcast("hello")
        assert env.broadcasts == []

    def test_two_broadcasts_get_distinct_tags(self):
        process, _ = make_process()
        process.urb_broadcast("a")
        process.urb_broadcast("b")
        tags = [m.tag for m in process.state.msg_set.as_list()]
        assert len(set(tags)) == 2


class TestOnMsg:
    def test_first_reception_acknowledges(self):
        process, env = make_process()
        message = TaggedMessage("m", 99)
        process.on_receive(MsgPayload(message))
        acks = env.broadcasts_of_kind("ACK")
        assert len(acks) == 1
        assert acks[0].message == message
        assert message in process.state.msg_set

    def test_repeated_reception_reuses_same_ack_tag(self):
        process, env = make_process()
        message = TaggedMessage("m", 99)
        process.on_receive(MsgPayload(message))
        process.on_receive(MsgPayload(message))
        acks = env.broadcasts_of_kind("ACK")
        assert len(acks) == 2
        assert acks[0].ack_tag == acks[1].ack_tag

    def test_repeated_reception_resends_the_identical_ack(self):
        process, env = make_process()
        message = TaggedMessage("m", 99)
        for _ in range(3):
            process.on_receive(MsgPayload(message))
        first, *repeats = env.broadcasts_of_kind("ACK")
        assert all(ack is first for ack in repeats)
        assert process.state.my_ack_for(message) == first.ack_tag

    def test_tag_stream_is_drawn_once_per_message(self):
        process, env = make_process()
        a, b = TaggedMessage("a", 1), TaggedMessage("b", 2)
        process.on_receive(MsgPayload(a))
        after_first = env.random.getstate()
        process.on_receive(MsgPayload(a))
        assert env.random.getstate() == after_first
        process.on_receive(MsgPayload(b))
        process.on_receive(MsgPayload(a))
        process.on_receive(MsgPayload(b))
        assert process.tag_generator.issued_count == 2

    def test_different_messages_get_different_ack_tags(self):
        process, env = make_process()
        process.on_receive(MsgPayload(TaggedMessage("a", 1)))
        process.on_receive(MsgPayload(TaggedMessage("b", 2)))
        acks = env.broadcasts_of_kind("ACK")
        assert acks[0].ack_tag != acks[1].ack_tag

    def test_own_message_received_back_is_acknowledged(self):
        # The broadcaster receives its own MSG (loopback) and must ACK it,
        # exactly like any other process.
        process, env = make_process()
        process.urb_broadcast("mine")
        msg_payload = env.broadcasts_of_kind("MSG")[0]
        process.on_receive(msg_payload)
        assert len(env.broadcasts_of_kind("ACK")) == 1


class TestOnAck:
    def test_delivery_requires_majority_of_distinct_acks(self):
        process, env = make_process(n=5)  # majority = 3
        message = TaggedMessage("m", 7)
        process.on_receive(AckPayload(message, ack_tag=1))
        process.on_receive(AckPayload(message, ack_tag=2))
        assert env.deliveries == []
        process.on_receive(AckPayload(message, ack_tag=3))
        assert [m.content for m in env.deliveries] == ["m"]

    def test_duplicate_ack_tags_do_not_count_twice(self):
        process, env = make_process(n=5)
        message = TaggedMessage("m", 7)
        for _ in range(10):
            process.on_receive(AckPayload(message, ack_tag=1))
        assert env.deliveries == []

    def test_delivery_happens_at_most_once(self):
        process, env = make_process(n=3)  # majority = 2
        message = TaggedMessage("m", 7)
        for ack_tag in (1, 2, 3):
            process.on_receive(AckPayload(message, ack_tag=ack_tag))
        assert len(env.deliveries) == 1
        assert len(process.delivery_log) == 1

    def test_fast_delivery_before_receiving_msg(self):
        # The paper's §III remark: ACKs may arrive before the MSG itself;
        # delivery on a majority of ACKs alone is allowed.
        process, env = make_process(n=3)
        message = TaggedMessage("m", 7)
        process.on_receive(AckPayload(message, ack_tag=1))
        process.on_receive(AckPayload(message, ack_tag=2))
        assert len(env.deliveries) == 1
        assert message not in process.state.msg_set

    def test_acks_for_different_messages_are_independent(self):
        process, env = make_process(n=3)
        a, b = TaggedMessage("a", 1), TaggedMessage("b", 2)
        process.on_receive(AckPayload(a, ack_tag=1))
        process.on_receive(AckPayload(b, ack_tag=2))
        assert env.deliveries == []

    def test_delivery_listener_invoked(self):
        process, _ = make_process(n=3)
        seen = []
        process.add_delivery_listener(seen.append)
        message = TaggedMessage("m", 7)
        process.on_receive(AckPayload(message, ack_tag=1))
        process.on_receive(AckPayload(message, ack_tag=2))
        assert seen == ["m"]


class TestTask1:
    def test_tick_rebroadcasts_every_pending_message(self):
        process, env = make_process(eager_first_broadcast=False)
        process.urb_broadcast("a")
        process.urb_broadcast("b")
        process.on_tick()
        msgs = env.broadcasts_of_kind("MSG")
        assert {p.message.content for p in msgs} == {"a", "b"}

    def test_tick_with_empty_msg_set_sends_nothing(self):
        process, env = make_process()
        process.on_tick()
        assert env.broadcasts == []

    def test_messages_are_never_retired(self):
        # Algorithm 1 is non-quiescent: delivery does not remove messages
        # from the retransmission set.
        process, env = make_process(n=3)
        process.urb_broadcast("m")
        message = process.state.msg_set.as_list()[0]
        process.on_receive(AckPayload(message, ack_tag=1))
        process.on_receive(AckPayload(message, ack_tag=2))
        assert len(env.deliveries) == 1
        assert process.pending_retransmissions == 1
        process.on_tick()
        assert len(env.broadcasts_of_kind("MSG")) >= 2  # eager + tick


class TestReceiveDispatch:
    def test_unknown_payload_type_raises(self):
        process, _ = make_process()
        with pytest.raises(TypeError):
            process.on_receive("garbage")
