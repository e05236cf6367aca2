"""A source row fated as a row equals its channels' ``transmit``, copy by copy.

``Network.broadcast_fast`` fates every broadcast of a row that
``row_profile`` accepts, and that is at least ``FATED_ROW_MIN_WIDTH`` wide, in
one pass (``_FatedRow``) and defers the channels' counters and guard state to
``Network.settle``.  Each test runs two networks
built from one seed: one fated through ``broadcast_fast`` and settled, its
twin through ``channel.transmit`` copy by copy in program order; fates,
delivery times, ``ChannelStats`` and ``_consecutive_drops`` must be equal.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    BernoulliLoss,
    DelaySpec,
    FairLossyChannelFactory,
    GilbertElliottLoss,
    LossSpec,
    Network,
    ReliableChannelFactory,
    UniformDelay,
)
from repro.network.network import FATED_ROW_MIN_WIDTH
from repro.simulation.rng import RandomSource

KEYS = ("m0", "m1", "m2", "m3")


def _factory(p, delay, bound):
    loss = LossSpec.none() if p is None else LossSpec.bernoulli(p)
    delay_spec = (DelaySpec.fixed(0.5) if delay == "fixed"
                  else DelaySpec.uniform(0.1, 0.9))
    return FairLossyChannelFactory(loss_spec=loss, delay_spec=delay_spec,
                                   fairness_bound=bound)


def fate_both(n, factory, seed, sends, preseed, settle_at=()):
    """Fate *sends* (``(src, key, now)``, program order) on twin networks and
    compare everything a run leaves; returns the per-copy twin.

    *preseed* (``{(src, dst): {key: count}}``) is guard state put on both
    networks' channels before the first send, as a reused network carries
    it; the row network also settles before each send index in
    *settle_at*, after which its rows are made again from the channels.
    """
    rows = Network(n, factory, RandomSource(seed))
    twin = Network(n, factory, RandomSource(seed))
    for net in (rows, twin):
        for (src, dst), drops in preseed.items():
            net.channel(src, dst)._consecutive_drops.update(drops)
    got = []
    for at, (src, key, now) in enumerate(sends):
        if at in settle_at:
            rows.settle()
        got.append(rows.broadcast_fast(src, key, now))
    rows.settle()
    want = [[twin.channel(src, dst).transmit(key, now)
             for dst in range(n)] for src, key, now in sends]
    assert got == want
    wide = n >= FATED_ROW_MIN_WIDTH
    assert rows.fated_sources == ({src for src, _, _ in sends} if wide else set())
    for pair, channel in twin.channels.items():
        mine = rows.channel(*pair)
        assert mine.stats == channel.stats, pair
        assert mine._consecutive_drops == channel._consecutive_drops, pair
    return twin


def _forced(net):
    return sum(ch.stats.forced_deliveries for ch in net.channels.values())


@pytest.mark.parametrize("bound", [None, 2])
@pytest.mark.parametrize("delay", ["fixed", "uniform"])
@pytest.mark.parametrize("p", [None, 0.0, 0.5])
def test_row_path_equals_transmit_copy_by_copy(p, delay, bound):
    n = FATED_ROW_MIN_WIDTH
    # Interleaved sources, keys repeated, guard state already on channels
    # of two rows (one of them at the bound), settled once mid-stream.
    srcs = [(2, 0, 2, 4, 2, 4, 0)[i % 7] for i in range(60)]
    sends = [(src, KEYS[i % 3], 1.0 + 0.25 * i) for i, src in enumerate(srcs)]
    preseed = {(2, 0): {"m0": 2, "m1": 1}, (0, 4): {"m1": 1}}
    twin = fate_both(n, _factory(p, delay, bound), 7, sends, preseed,
                     settle_at=(25,))
    stats = [ch.stats for ch in twin.channels.values()]
    assert sum(s.attempts for s in stats) == len(sends) * n
    if p:
        assert 0 < sum(s.dropped for s in stats) < len(sends) * n
        assert (_forced(twin) > 0) == (bound is not None)
    else:
        # Every copy delivered: the preseeded streaks ended.
        assert not any(ch._consecutive_drops for ch in twin.channels.values())


@given(
    n=st.integers(1, FATED_ROW_MIN_WIDTH + 2),
    p=st.sampled_from([None, 0.0, 0.2, 0.5, 0.9]),
    delay=st.sampled_from(["fixed", "uniform"]),
    bound=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2 ** 16),
    picks=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(KEYS)),
                   max_size=40),
    preseed=st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(KEYS)),
        st.integers(1, 4), max_size=4),
    settle_at=st.sets(st.integers(0, 39), max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_row_path_equals_transmit_drawn(n, p, delay, bound, seed, picks,
                                        preseed, settle_at):
    sends = [(src % n, key, 0.5 * i) for i, (src, key) in enumerate(picks)]
    guards: dict = {}
    for (src, dst, key), count in preseed.items():
        guards.setdefault((src % n, dst % n), {})[key] = count
    fate_both(n, _factory(p, delay, bound), seed, sends, guards, settle_at)


def _gilbert_on_row_1(src, dst, rng):
    if src == 1:
        return GilbertElliottLoss(rng)
    return BernoulliLoss(0.3, rng)


def _one_stream_for_row_1(src, dst, rng):
    # Every channel of row 1 draws from one generator: a row pass would
    # draw it out of transmit's order.
    return UniformDelay(random.Random(5) if src != 1 else _SHARED, 0.1, 0.9)


_SHARED = random.Random(11)


class _Subclassed(random.Random):
    pass


def _subclassed_stream_on_row_1(src, dst, rng):
    return BernoulliLoss(0.3, _Subclassed(dst) if src == 1 else rng)


def _mixed_p_on_row_1(src, dst, rng):
    return BernoulliLoss(0.3 if (src, dst) != (1, 2) else 0.4, rng)


ALL_BUT_ROW_1 = {0, 2}


@pytest.mark.parametrize("factory, fated", [
    (FairLossyChannelFactory(loss_spec=LossSpec.bernoulli(1.0)), set()),
    (FairLossyChannelFactory(loss_spec=LossSpec.custom(_gilbert_on_row_1)),
     ALL_BUT_ROW_1),
    (FairLossyChannelFactory(loss_spec=LossSpec.custom(_mixed_p_on_row_1)),
     ALL_BUT_ROW_1),
    (FairLossyChannelFactory(loss_spec=LossSpec.custom(
        _subclassed_stream_on_row_1)), ALL_BUT_ROW_1),
    (FairLossyChannelFactory(delay_spec=DelaySpec.custom(
        _one_stream_for_row_1)), ALL_BUT_ROW_1),
    (FairLossyChannelFactory(delay_spec=DelaySpec.exponential(0.3)), set()),
    (ReliableChannelFactory(DelaySpec.uniform(0.1, 0.9)), set()),
], ids=["all-drop", "gilbert-elliott", "mixed-p", "subclassed-stream",
        "shared-stream", "exponential", "reliable"])
def test_rows_the_rule_rejects_stay_per_copy(factory, fated):
    network = Network(FATED_ROW_MIN_WIDTH, factory, RandomSource(3))
    for i in range(6):
        network.broadcast_fast(i % 3, KEYS[i % 2], float(i))
    assert network.fated_sources == fated
    # Row 1 went copy by copy: its channels' stats are current unsettled.
    assert network.channel(1, 0).stats.attempts == 2
