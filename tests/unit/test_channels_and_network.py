"""Unit tests for channels (fair lossy, reliable, quasi-reliable) and the
anonymous network."""

import random

import pytest

from repro.network.channel import LossyChannel
from repro.network.delay import DelaySpec, FixedDelay
from repro.network.fair_lossy import (
    DEFAULT_FAIRNESS_BOUND,
    FairLossyChannel,
    FairLossyChannelFactory,
)
from repro.network.loss import BernoulliLoss, DropFirstK, LossSpec, NoLoss
from repro.network.network import Network
from repro.network.reliable import (
    QuasiReliableChannel,
    QuasiReliableChannelFactory,
    ReliableChannel,
    ReliableChannelFactory,
)
from repro.simulation.rng import RandomSource
from repro.simulation.simtime import NEVER


class TestLossyChannel:
    def test_delivery_time_includes_delay(self):
        channel = LossyChannel(0, 1, NoLoss(), FixedDelay(0.5))
        assert channel.transmit("m", 10.0) == 10.5

    def test_drop_returns_none(self):
        channel = LossyChannel(0, 1, DropFirstK(1), FixedDelay(0.5))
        assert channel.transmit("m", 0.0) is None
        assert channel.transmit("m", 1.0) == 1.5

    def test_stats_track_attempts_and_drops(self):
        channel = LossyChannel(0, 1, DropFirstK(2), FixedDelay(0.5))
        for t in range(4):
            channel.transmit("m", float(t))
        assert channel.stats.attempts == 4
        assert channel.stats.dropped == 2
        assert channel.stats.delivered == 2
        assert channel.stats.drop_rate == pytest.approx(0.5)

    def test_fairness_guard_forces_delivery(self):
        # The loss model wants to drop everything; the guard caps consecutive
        # drops at 3, so the 4th copy must get through.
        channel = LossyChannel(0, 1, BernoulliLoss(1.0, random.Random(0)),
                               FixedDelay(0.1), fairness_bound=3)
        outcomes = [channel.transmit("m", float(t)) for t in range(5)]
        assert outcomes[:3] == [None, None, None]
        assert outcomes[3] is not None
        assert channel.stats.forced_deliveries == 1

    def test_fairness_guard_resets_after_delivery(self):
        channel = LossyChannel(0, 1, BernoulliLoss(1.0, random.Random(0)),
                               FixedDelay(0.1), fairness_bound=2)
        results = [channel.transmit("m", float(t)) for t in range(7)]
        delivered = [r is not None for r in results]
        # pattern: drop, drop, forced, drop, drop, forced, ...
        assert delivered == [False, False, True, False, False, True, False]

    def test_fairness_guard_is_per_key(self):
        # Every copy would be lost.  One drop of "a" does not force the
        # first copy of "b"; the next copy of each key is forced, and a
        # forced delivery starts that key's count again.
        channel = LossyChannel(0, 1, BernoulliLoss(1.0, random.Random(0)),
                               FixedDelay(0.1), fairness_bound=1)
        outcomes = [channel.transmit(key, 0.0) for key in "ababa"]
        assert outcomes == [None, None, 0.1, 0.1, None]
        assert channel.stats.forced_deliveries == 2

    def test_rejects_invalid_fairness_bound(self):
        with pytest.raises(ValueError):
            LossyChannel(0, 1, NoLoss(), FixedDelay(0.1), fairness_bound=0)

    def test_rejects_negative_endpoints(self):
        with pytest.raises(ValueError):
            LossyChannel(-1, 0, NoLoss(), FixedDelay(0.1))

    def test_describe(self):
        channel = LossyChannel(0, 1, NoLoss(), FixedDelay(0.1), fairness_bound=5)
        assert "0->1" in channel.describe()


class TestFairLossyFactory:
    def test_default_fairness_bound(self):
        factory = FairLossyChannelFactory(loss_spec=LossSpec.bernoulli(0.5))
        channel = factory.build(0, 1, random.Random(0), random.Random(1))
        assert isinstance(channel, FairLossyChannel)
        assert channel.fairness_bound == DEFAULT_FAIRNESS_BOUND

    def test_guard_can_be_disabled(self):
        factory = FairLossyChannelFactory(fairness_bound=None)
        channel = factory.build(0, 1, random.Random(0), random.Random(1))
        assert channel.fairness_bound is None

    def test_describe(self):
        assert "fair-lossy" in FairLossyChannelFactory().describe()


class TestReliableChannels:
    def test_reliable_always_delivers(self):
        channel = ReliableChannel(0, 1, FixedDelay(1.0))
        assert all(channel.transmit("m", float(t)) is not None for t in range(10))

    def test_reliable_factory(self):
        channel = ReliableChannelFactory(DelaySpec.fixed(1.0)).build(
            0, 1, random.Random(0), random.Random(1)
        )
        assert isinstance(channel, ReliableChannel)

    def test_quasi_reliable_drops_after_sender_crash(self):
        # Sender 0 crashes at t=5; a copy sent at t=4.5 with delay 1.0 would
        # arrive at 5.5 >= 5.0, so it is lost with the sender.
        channel = QuasiReliableChannel(
            0, 1, FixedDelay(1.0), sender_crash_time=lambda src: 5.0
        )
        assert channel.transmit("m", 3.0) == 4.0
        assert channel.transmit("m", 4.5) is None

    def test_quasi_reliable_correct_sender_never_drops(self):
        channel = QuasiReliableChannel(
            0, 1, FixedDelay(1.0), sender_crash_time=lambda src: NEVER
        )
        assert all(channel.transmit("m", float(t)) is not None for t in range(5))

    def test_quasi_reliable_factory(self):
        factory = QuasiReliableChannelFactory(sender_crash_time=lambda src: NEVER)
        channel = factory.build(0, 1, random.Random(0), random.Random(1))
        assert isinstance(channel, QuasiReliableChannel)


class TestNetwork:
    def _network(self, n=3, loss=None):
        factory = FairLossyChannelFactory(
            loss_spec=loss or LossSpec.none(), delay_spec=DelaySpec.fixed(1.0)
        )
        return Network(n, factory, RandomSource(0))

    def test_broadcast_reaches_every_process_including_self(self):
        network = self._network(4)
        copies = network.broadcast_fast(1, "payload", 0.0)
        # Destination-index order, the sender's own copy included.
        assert [dst for dst, _time in enumerate(copies)] == [0, 1, 2, 3]
        assert all(time is not None for time in copies)

    def test_broadcast_returns_a_fresh_list_each_time(self):
        # No shared buffer: a caller may hold one broadcast's copies while
        # another broadcast goes through.
        network = self._network(3)
        first = network.broadcast_fast(0, "p", 0.0)
        second = network.broadcast_fast(1, "p", 5.0)
        assert first is not second
        assert first == [1.0, 1.0, 1.0]
        assert second == [6.0, 6.0, 6.0]

    def test_deliver_time_is_send_time_plus_channel_delay(self):
        network = self._network(2)
        assert network.broadcast_fast(0, "p", 3.0)[1] == 4.0

    def test_each_copy_draws_from_its_own_channel_in_destination_order(self):
        # One broadcast = one transmit per directed channel, in destination
        # order, each on that channel's own loss/delay substreams: the
        # copies equal what the channels of an identically seeded network
        # decide when asked one by one.
        loss = LossSpec.bernoulli(0.5)
        network, twin = self._network(4, loss=loss), self._network(4, loss=loss)
        for now in (0.0, 1.0, 2.0):
            expected = [twin.channel(2, dst).transmit("p", now)
                        for dst in range(4)]
            assert network.broadcast_fast(2, "p", now) == expected
        assert {time for time in expected} != {None}

    def test_fairness_guard_forces_a_copy_through(self):
        # An always-drop loss model cannot starve a retransmitted message:
        # the fair lossy channel delivers one copy within its bound.
        network = self._network(2, loss=LossSpec.bernoulli(1.0))
        fates = [network.broadcast_fast(0, "p", float(t))[1]
                 for t in range(DEFAULT_FAIRNESS_BOUND + 1)]
        assert fates[0] is None and any(time is not None for time in fates)

    def test_channels_are_cached(self):
        network = self._network(2)
        assert network.channel(0, 1) is network.channel(0, 1)

    def test_channels_are_per_direction(self):
        network = self._network(2)
        assert network.channel(0, 1) is not network.channel(1, 0)

    def test_drop_statistics(self):
        network = self._network(2, loss=LossSpec.bernoulli(1.0))
        # fairness guard eventually forces delivery, so use few attempts
        copies = network.broadcast_fast(0, "p", 0.0)
        assert copies == [None, None]  # a dropped copy has no time
        stats = [channel.stats for channel in network.channels.values()]
        assert sum(s.attempts for s in stats) == 2
        assert sum(s.dropped for s in stats) == 2

    def test_index_validation(self):
        network = self._network(2)
        with pytest.raises(IndexError):
            network.broadcast_fast(5, "p", 0.0)
        with pytest.raises(IndexError):
            network.broadcast_fast(-1, "p", 0.0)
        with pytest.raises(IndexError):
            network.channel(0, 9)
        assert network.channels == {}

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            Network(0, FairLossyChannelFactory())

    def test_describe(self):
        assert "complete-graph" in self._network(3).describe()


class RecordingFactory:
    """Wraps a channel factory, recording every build: the pair and the
    state of the two generators it was handed."""

    def __init__(self, factory) -> None:
        self.factory = factory
        self.built: list[tuple] = []

    def build(self, src, dst, loss_rng, delay_rng):
        self.built.append((src, dst, loss_rng.getstate(),
                           delay_rng.getstate()))
        return self.factory.build(src, dst, loss_rng, delay_rng)

    def describe(self) -> str:
        return self.factory.describe()


#: The channel families ``repro.registry.builtins`` registers.
BUILTIN_CHANNELS = ("fair_lossy", "reliable", "quasi_reliable")


def family_factories(n: int):
    """``(label, factory)`` for every built-in family and a custom spec."""
    from repro.experiments.config import Scenario
    from repro.experiments.runner import build_crash_schedule
    from repro.network.delay import UniformDelay
    from repro.registry import channels

    assert set(BUILTIN_CHANNELS) <= set(channels.names())
    for name in BUILTIN_CHANNELS:
        scenario = Scenario(n_processes=n, channel_type=name,
                            loss=LossSpec.bernoulli(0.3),
                            delay=DelaySpec.uniform(0.1, 1.0),
                            crashes={0: 2.0})
        yield name, channels.get(name).factory(
            scenario, build_crash_schedule(scenario))
    yield "custom", FairLossyChannelFactory(
        loss_spec=LossSpec.custom(
            lambda src, dst, rng: BernoulliLoss(0.1 * (src % 4), rng)),
        delay_spec=DelaySpec.custom(
            lambda src, dst, rng: UniformDelay(rng, 0.1, 0.2 + dst)),
    )


class TestChannelRow:
    """``Network._row(src)`` is ``channel(src, dst)`` for every ``dst`` in
    order: the same generators in the same states, the same ``_channels``
    entries in the same order, the same fates."""

    @staticmethod
    def fates(channels) -> list:
        return [channel.transmit(payload, float(t))
                for t, payload in enumerate("abcab")
                for channel in channels]

    @pytest.mark.parametrize("case", range(6))
    def test_row_builds_what_channel_builds(self, case):
        rng = random.Random(case)
        n, seed = rng.randint(1, 7), rng.randrange(2 ** 32)
        for label, factory in family_factories(n):
            by_row = Network(n, RecordingFactory(factory), RandomSource(seed))
            by_pair = Network(n, RecordingFactory(factory),
                              RandomSource(seed))
            # One channel of each built beforehand, through channel():
            # the row reuses it and keeps its place in the cache.
            src, dst = rng.randrange(n), rng.randrange(n)
            by_row.channel(src, dst)
            by_pair.channel(src, dst)
            sources = list(range(n))
            rng.shuffle(sources)
            for source in sources:
                row = by_row._row(source)
                pairs = [by_pair.channel(source, d) for d in range(n)]
                assert [(c.src, c.dst) for c in row] == \
                    [(c.src, c.dst) for c in pairs], label
            assert by_row.channel_factory.built == \
                by_pair.channel_factory.built, label
            assert list(by_row._channels) == list(by_pair._channels), label
            assert self.fates(by_row._channels.values()) == \
                self.fates(by_pair._channels.values()), label
            assert list(by_row.random_source._streams) == \
                list(by_pair.random_source._streams), label

    def test_a_row_is_built_once(self):
        network = Network(3, RecordingFactory(FairLossyChannelFactory()))
        assert network._row(1) is network._row(1)
        assert len(network.channel_factory.built) == 3
