"""The completely connected anonymous network.

The paper's processes communicate through a completely connected network of
bidirectional fair lossy channels using a single ``broadcast(m)`` primitive
that sends ``m`` to *all* processes, including the sender itself (§I, §II).

:class:`Network` owns the ``n × n`` directed channels (built lazily from a
channel factory) and implements the broadcast primitive by handing one copy
of the payload to every directed channel originating at the sender, the
sender's own included.  It returns a fresh list of delivery times indexed
by destination (``None`` = dropped), from which the engine books the
broadcast: trace rows, receive events, metrics.  A channel recognises
retransmissions of a protocol message by the payload itself (payloads are
hashable frozen dataclasses, and identical retransmissions compare equal).
The source index never reaches protocol code: the engine hands the
destination only the payload, like the paper's anonymous ``receive(m)``.

A row :func:`row_profile` accepts is fated a row at a time (DESIGN.md §8.14).
"""

from __future__ import annotations

from itertools import compress
from random import Random
from typing import Any, Optional, Protocol

from ..simulation.rng import RandomSource
from ..simulation.simtime import SimTime
from .channel import Channel, LossyChannel
from .delay import FixedDelay, UniformDelay
from .loss import BernoulliLoss, NoLoss

#: What a source row's broadcast returns: the delivery time of the copy to
#: each destination, by position (``None`` = dropped).
Fates = list[Optional[SimTime]]
#: Narrower rows stay per copy: a row pass saves too little a broadcast to
#: repay making and settling the row in a short run (DESIGN.md §8.14).
FATED_ROW_MIN_WIDTH = 6


class ChannelFactory(Protocol):
    """Anything that can build a directed channel for a process pair.  An
    optional ``draws`` pair of booleans says which of the ``(loss, delay)``
    streams its channels draw; the :class:`Network` hands ``None`` for the other."""

    def build(self, src: int, dst: int, loss_rng, delay_rng) -> Channel:
        """Create the channel for the directed pair ``src -> dst``."""
        ...

    def describe(self) -> str:
        """Human-readable factory description."""
        ...


def row_profile(channels: list) -> Optional[tuple]:
    """``(p, fairness bound, delay low, delay high)`` of a row fated as a
    row — by :class:`_FatedRow` and by the vectorized engine's sampler —
    else ``None``: every channel runs :meth:`LossyChannel.transmit` over
    no loss or Bernoulli ``p < 1`` and a fixed (``high`` None) or uniform
    delay, all alike, each stream a stock ``random.Random`` of its own (a
    block draw bypasses a subclass's ``random()``; a shared stream would be
    drawn out of ``transmit``'s order).  All-drop rows are never hot."""
    profiles = set()
    streams = []
    for ch in channels:
        if type(ch).transmit is not LossyChannel.transmit:
            return None
        loss, delay = ch.loss_model, ch.delay_model
        if type(loss) is NoLoss or (type(loss) is BernoulliLoss and not loss.probability):
            probability = 0.0
        elif type(loss) is BernoulliLoss and type(loss._rng) is Random:
            probability = loss.probability
            streams.append(loss._rng)
        else:
            return None
        if type(delay) is FixedDelay:
            low, high = delay.delay, None
        elif type(delay) is UniformDelay and type(delay._rng) is Random:
            low, high = delay.low, delay.high
            streams.append(delay._rng)
        else:
            return None
        profiles.add((probability, ch.fairness_bound, low, high))
    if len(profiles) != 1 or len(set(map(id, streams))) != len(streams):
        return None
    profile = profiles.pop()
    return profile if profile[0] < 1.0 else None


def settle_row(channels: list, broadcasts: int, dropped: list, forced: list,
               guard: dict) -> None:
    """Fold a row's deferred counters into its channels (*broadcasts*
    attempts each, ``dropped[j]`` / ``forced[j]`` on channel ``j``, so
    ``delivered = attempts - dropped`` as ``transmit`` leaves it) and make
    *guard*, ``key -> {j: consecutive drops}``, their guard state."""
    for channel, drops, forces in zip(channels, dropped, forced):
        stats = channel.stats
        stats.attempts += broadcasts
        stats.dropped += drops
        stats.delivered += broadcasts - drops
        stats.forced_deliveries += forces
        channel._consecutive_drops.clear()
    for key, counts in guard.items():
        for j, count in counts.items():
            channels[j]._consecutive_drops[key] = count


class _FatedRow:
    """A source row whose broadcasts are fated a row at a time.

    The fates are ``transmit``'s, copy by copy: each channel's own streams
    drawn in its order (a loss uniform a copy when ``p > 0``, a delay
    uniform per delivered copy, forced ones included), the same ``low +
    (high - low) * random()``.  The bookkeeping is per row: one guard table
    ``payload -> {dst: consecutive drops}``, looked up once a broadcast and
    loaded from the channels when the row is made, and one broadcast count
    plus per-destination drops and forced deliveries (:meth:`Network.settle`).
    """

    __slots__ = ("channels", "dsts", "probability", "bound", "low", "span",
                 "loss_randoms", "delay_randoms", "guard", "broadcasts",
                 "dropped", "forced")

    def __init__(self, channels: list, profile: tuple) -> None:
        self.channels = channels
        self.dsts = range(len(channels))
        p, self.bound, low, high = profile
        self.probability, self.low = p, low
        self.span = None if high is None else high - low
        self.loss_randoms = [c.loss_model._rng.random for c in channels] if p else []
        self.delay_randoms = [c.delay_model._rng.random for c in channels] if high else []
        guard: dict[Any, dict[int, int]] = {}
        for dst, ch in enumerate(channels):
            for key, count in ch._consecutive_drops.items():
                guard.setdefault(key, {})[dst] = count
        self.guard = guard
        self.broadcasts = 0
        self.dropped = [0] * len(channels)
        self.forced = [0] * len(channels)

    def fate(self, payload: Any, now: SimTime) -> Fates:
        """The copies of one broadcast of *payload* at *now*."""
        self.broadcasts += 1
        p = self.probability
        drops = [random() < p for random in self.loss_randoms]
        guard = self.guard
        low, span = self.low, self.span
        if True not in drops:
            # Every copy delivered: every streak of the payload ends.
            if guard and payload in guard:
                del guard[payload]
            if span is None:
                return [now + low] * len(self.channels)
            return [now + (low + span * random())
                    for random in self.delay_randoms]
        counts = guard.get(payload)
        if counts is None:
            counts = guard[payload] = {}
        else:
            for dst in [dst for dst in counts if not drops[dst]]:
                del counts[dst]  # a delivery ends a streak
        bound = self.bound
        for dst in compress(self.dsts, drops):
            count = counts.get(dst, 0)
            if bound is not None and count >= bound:
                # The fairness guard forces the copy through.
                drops[dst] = False
                self.forced[dst] += 1
                del counts[dst]
            else:
                counts[dst] = count + 1
                self.dropped[dst] += 1
        if not counts:
            del guard[payload]
        if span is None:
            at = now + low
            return [None if drop else at for drop in drops]
        return [None if drop else now + (low + span * random())
                for drop, random in zip(drops, self.delay_randoms)]


class Network:
    """Completely connected topology with an anonymous broadcast primitive.

    Parameters
    ----------
    n_processes:
        Number of processes.
    channel_factory:
        Factory building each directed channel (fair lossy by default).
    random_source:
        Master random source; each channel gets independent loss and delay
        substreams (those the factory's ``draws`` names).
    """

    def __init__(
        self,
        n_processes: int,
        channel_factory: ChannelFactory,
        random_source: Optional[RandomSource] = None,
    ) -> None:
        if n_processes < 1:
            raise ValueError("n_processes must be positive")
        self.n_processes = n_processes
        self.channel_factory = channel_factory
        self.random_source = random_source or RandomSource(0)
        self._draws = getattr(channel_factory, "draws", (True, True))
        self._channels: dict[tuple[int, int], Channel] = {}
        #: Per-source dense channel rows in destination order, and each
        #: source's fated row's ``fate`` or bound ``transmit`` methods in
        #: that order (``_fate_of``); both built lazily.
        self._rows: list[Optional[list[Channel]]] = [None] * n_processes
        self._fates: list[Any] = [None] * n_processes
        #: Fated rows :meth:`settle` writes back, and every source fated so.
        self._unsettled: list[_FatedRow] = []
        self.fated_sources: set[int] = set()

    # ------------------------------------------------------------------ #
    # channels
    # ------------------------------------------------------------------ #
    def channel(self, src: int, dst: int) -> Channel:
        """Return (building lazily) the directed channel ``src -> dst``."""
        self._check_index(src)
        self._check_index(dst)
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            index = src * self.n_processes + dst
            channel = self.channel_factory.build(
                src,
                dst,
                self.random_source.for_component("loss", index) if self._draws[0] else None,
                self.random_source.for_component("delay", index) if self._draws[1] else None,
            )
            self._channels[key] = channel
        return channel

    @property
    def channels(self) -> dict[tuple[int, int], Channel]:
        """All channels instantiated so far, keyed by ``(src, dst)``."""
        return dict(self._channels)

    # ------------------------------------------------------------------ #
    # communication primitives
    # ------------------------------------------------------------------ #
    def _row(self, src: int) -> list[Channel]:
        """Dense destination-ordered channel row for *src* (built lazily)."""
        row = self._rows[src]
        if row is None:
            row = self._rows[src] = [
                self.channel(src, dst) for dst in range(self.n_processes)
            ]
        return row

    def broadcast_fast(self, src: int, payload: Any, now: SimTime) -> Fates:
        """The paper's ``broadcast(m)``: one copy to every process.

        Returns a fresh list of delivery times indexed by destination, the
        sender itself included, ``None`` meaning the copy was dropped.  Each
        channel draws from its own RNG streams, one copy at a time in that
        order, so runs stay deterministic.  A fated row's channel counts
        and guard state are current only after :meth:`settle`.
        """
        if not 0 <= src < self.n_processes:
            self._check_index(src)
        fate = self._fates[src]
        if fate is None:
            fate = self._fates[src] = self._fate_of(src)
        if type(fate) is list:
            # A row fated copy by copy: its channels' bound ``transmit``.
            return [transmit(payload, now) for transmit in fate]
        return fate(payload, now)

    def _fate_of(self, src: int) -> Any:
        row = self._row(src)
        profile = row_profile(row) if len(row) >= FATED_ROW_MIN_WIDTH else None
        if profile is None:
            return [channel.transmit for channel in row]
        fated = _FatedRow(row, profile)
        self._unsettled.append(fated)
        self.fated_sources.add(src)
        return fated.fate

    def settle(self) -> None:
        """Write the fated rows' counts and guard state into their channels
        (once, when a run ends); a row is made again on its next broadcast."""
        for row in self._unsettled:
            settle_row(row.channels, row.broadcasts, row.dropped, row.forced,
                       row.guard)
        self._unsettled.clear()
        self._fates = [None] * self.n_processes

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Human-readable description used in reports."""
        return (
            f"complete-graph(n={self.n_processes}, "
            f"channels={self.channel_factory.describe()})"
        )

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.n_processes):
            raise IndexError(
                f"process index {index} out of range [0, {self.n_processes})"
            )
