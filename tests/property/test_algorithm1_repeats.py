"""Algorithm 1 against a literal transcription of its receive handlers.

``MajorityUrbProcess`` answers a repeat from its record: a repeated MSG
re-sends the ACK object built at the first reception, and a repeated
``tag_ack`` returns before the threshold test.  The transcription below
does neither — it is lines 7–27 of the paper's Algorithm 1 as written, with
a fresh ``AckPayload`` per MSG and record-then-threshold per ACK — and
Hypothesis checks that, on any interleaving of first and repeated MSG and
ACK receptions, both send the same ACKs in the same order, draw the same
randomness and deliver the same messages.
"""

from hypothesis import given, settings, strategies as st

from helpers import FakeEnvironment
from repro.core.algorithm1 import MajorityUrbProcess
from repro.core.messages import AckPayload, MsgPayload, TaggedMessage
from repro.core.tags import TagGenerator

MESSAGES = [TaggedMessage(f"m{i}", 100 + i) for i in range(3)]
#: Few acknowledger tags, so that most ACKs are repeats.
ACK_TAGS = list(range(1, 9))


class Transcription:
    """Receive handlers of Algorithm 1, lines 7–27, one line at a time."""

    def __init__(self, env: FakeEnvironment, n: int, threshold=None) -> None:
        self.env = env
        self.tags = TagGenerator(env.random)   # random_i()
        self.threshold = n // 2 + 1 if threshold is None else threshold
        self.msg = set()                       # MSG_i
        self.my_ack = {}                       # MY_ACK_i
        self.all_ack = {}                      # ALL_ACK_i
        self.delivered = []                    # URB_DELIVERED_i, in order

    def receive(self, payload) -> None:
        m = payload.message
        if isinstance(payload, MsgPayload):                    # line 7
            if m not in self.msg:                              # line 8
                self.msg.add(m)                                # line 9
            if m in self.my_ack:                               # line 11
                self.env.broadcast(AckPayload(m, self.my_ack[m]))  # line 12
            else:                                              # line 13
                tag_ack = self.tags.next()                     # line 14
                self.my_ack[m] = tag_ack                       # line 15
                self.env.broadcast(AckPayload(m, tag_ack))     # line 16
            return
        acks = self.all_ack.setdefault(m, set())               # line 18
        if payload.ack_tag not in acks:                        # line 19
            acks.add(payload.ack_tag)                          # line 20
        if len(acks) >= self.threshold:                        # line 22
            if m not in self.delivered:                        # line 23
                self.delivered.append(m)                       # line 24
                self.env.notify_delivery(m)                    # line 25


receptions = st.lists(
    st.one_of(
        st.tuples(st.just("msg"), st.integers(0, 2)),
        st.tuples(st.just("ack"), st.integers(0, 2),
                  st.sampled_from(ACK_TAGS)),
        # The process's own last ACK, looped back to it.
        st.tuples(st.just("own"), st.integers(0, 2)),
    ),
    max_size=80,
)


def own_ack(env: FakeEnvironment, message: TaggedMessage):
    for payload in reversed(env.broadcasts):
        if payload.message == message:
            return payload
    return None


@given(n=st.integers(1, 7), threshold=st.none() | st.integers(1, 8),
       seed=st.integers(0, 3), sequence=receptions)
@settings(max_examples=300, deadline=None)
def test_repeats_answered_from_the_record_match_the_pseudocode(
        n, threshold, seed, sequence):
    env, literal_env = FakeEnvironment(seed), FakeEnvironment(seed)
    process = MajorityUrbProcess(env, n, majority_threshold=threshold)
    literal = Transcription(literal_env, n, threshold)
    for kind, index, *rest in sequence:
        message = MESSAGES[index]
        if kind == "own":
            payloads = own_ack(env, message), own_ack(literal_env, message)
            if payloads[0] is None:
                continue
        elif kind == "msg":
            payloads = MsgPayload(message), MsgPayload(message)
        else:
            payloads = (AckPayload(message, rest[0]),) * 2
        process.on_receive(payloads[0])
        literal.receive(payloads[1])
        assert env.broadcasts == literal_env.broadcasts
        assert env.random.getstate() == literal_env.random.getstate()
        assert env.deliveries == literal_env.deliveries == literal.delivered
        assert [record.message for record in process.delivery_log] \
            == literal.delivered
