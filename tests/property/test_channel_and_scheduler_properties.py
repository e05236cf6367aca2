"""Property-based tests for the channel fairness guarantee and the event
queue ordering."""

import random

from hypothesis import given, settings, strategies as st

from repro.network.channel import LossyChannel
from repro.network.delay import FixedDelay
from repro.network.loss import BernoulliLoss, DropFirstK, GilbertElliottLoss
from repro.simulation.events import EventKind
from repro.simulation.scheduler import EventQueue


def make_loss_model(kind: str, rng: random.Random):
    if kind == "bernoulli":
        return BernoulliLoss(0.9, rng)
    if kind == "always":
        return BernoulliLoss(1.0, rng)
    if kind == "bursty":
        return GilbertElliottLoss(rng, p_good_to_bad=0.5, p_bad_to_good=0.1,
                                  loss_good=0.5, loss_bad=1.0)
    return DropFirstK(7)


class TestFairnessGuardProperty:
    @given(
        kind=st.sampled_from(["bernoulli", "always", "bursty", "dropk"]),
        bound=st.integers(1, 10),
        attempts=st.integers(1, 120),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_more_than_bound_consecutive_drops(self, kind, bound, attempts, seed):
        """With the fairness guard at ``bound``, the channel can never drop
        more than ``bound`` consecutive copies of the same payload — the
        finite-run version of the Fairness property."""
        channel = LossyChannel(
            0, 1, make_loss_model(kind, random.Random(seed)), FixedDelay(0.1),
            fairness_bound=bound,
        )
        consecutive = 0
        for attempt in range(attempts):
            delivered = channel.transmit("key", float(attempt)) is not None
            if delivered:
                consecutive = 0
            else:
                consecutive += 1
            assert consecutive <= bound

    @given(
        bound=st.integers(1, 5),
        n_messages=st.integers(1, 5),
        attempts_per_message=st.integers(1, 30),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=80, deadline=None)
    def test_guard_applies_per_payload(self, bound, n_messages,
                                       attempts_per_message, seed):
        channel = LossyChannel(
            0, 1, BernoulliLoss(1.0, random.Random(seed)), FixedDelay(0.1),
            fairness_bound=bound,
        )
        consecutive = {m: 0 for m in range(n_messages)}
        for attempt in range(attempts_per_message):
            for m in range(n_messages):
                delivered = channel.transmit(m, float(attempt)) is not None
                consecutive[m] = 0 if delivered else consecutive[m] + 1
                assert consecutive[m] <= bound

    @given(probability=st.floats(0.0, 0.95), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_retransmission_eventually_succeeds_without_guard(self, probability, seed):
        """Even without the guard, Bernoulli(p<1) loss lets some copy through
        within a generous retransmission budget (the probabilistic reading of
        fairness; 400 attempts makes failure probability < 1e-8 at p=0.95)."""
        channel = LossyChannel(
            0, 1, BernoulliLoss(probability, random.Random(seed)), FixedDelay(0.1),
            fairness_bound=None,
        )
        assert any(
            channel.transmit("key", float(t)) is not None for t in range(400)
        )

    @given(seed=st.integers(0, 2 ** 16), attempts=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_channel_never_duplicates(self, seed, attempts):
        """Uniform Integrity, channel side: one transmit yields at most one
        delivery (trivially true by construction, asserted via stats)."""
        channel = LossyChannel(
            0, 1, BernoulliLoss(0.5, random.Random(seed)), FixedDelay(0.1),
        )
        for t in range(attempts):
            channel.transmit("key", float(t))
        assert channel.stats.delivered + channel.stats.dropped == channel.stats.attempts
        assert channel.stats.attempts == attempts


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_pops_are_sorted_and_stable(self, times):
        queue = EventQueue()
        for index, time in enumerate(times):
            queue.schedule(time, EventKind.TICK, target=index)
        popped = [queue.pop() for _ in range(len(times))]
        # Non-decreasing times; stable for equal times: the scheduler-assigned
        # sequence numbers of equal-time events appear in increasing order.
        assert all(a[:2] < b[:2] for a, b in zip(popped, popped[1:]))
        assert sorted(event[1] for event in popped) == list(range(len(times)))

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, times):
        """Everything pushed is eventually popped, exactly once."""
        queue = EventQueue()
        for index, time in enumerate(times):
            queue.schedule(time, EventKind.TICK, target=index)
        assert queue.pending_of(EventKind.TICK) == len(queue) == len(times)
        targets = sorted(queue.pop()[3] for _ in range(len(times)))
        assert targets == list(range(len(times)))
        assert queue.pending_of(EventKind.TICK) == len(queue) == 0

    @given(st.lists(st.lists(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0,
                                       allow_nan=False)),
        max_size=8), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_bulk_push_is_the_per_copy_schedule_calls(self, broadcasts):
        """``schedule_receives`` leaves the queue exactly as one ``schedule``
        call per delivered copy does, with claims and ticks in between."""
        bulk, single = EventQueue(), EventQueue()
        for index, fates in enumerate(broadcasts):
            copies = list(fates)
            drops = bulk.schedule_receives(copies, index)
            assert drops == fates.count(None)
            for dst, time in enumerate(copies):
                if time is not None:
                    single.schedule(time, EventKind.RECEIVE, target=dst,
                                    payload=index)
            for queue in (bulk, single):
                queue.claim_seqs(index % 3)
                queue.schedule(float(index), EventKind.TICK, target=0)
        assert bulk.pending == single.pending
        assert [bulk.pop() for _ in range(len(bulk))] == \
            [single.pop() for _ in range(len(single))]
