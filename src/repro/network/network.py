"""The completely connected anonymous network.

The paper's processes communicate through a completely connected network of
bidirectional fair lossy channels using a single ``broadcast(m)`` primitive
that sends ``m`` to *all* processes, including the sender itself (§I, §II).

:class:`Network` owns the ``n × n`` directed channels (built lazily from a
channel factory) and implements the broadcast primitive by handing one copy
of the payload to every directed channel originating at the sender, the
sender's own included.  It returns a fresh list of ``(dst, deliver_time)``
pairs, one per destination (``None`` = dropped), from which the engine books
the broadcast: trace rows, receive events, metrics.  A channel recognises
retransmissions of a protocol message by the payload itself (payloads are
hashable frozen dataclasses, and identical retransmissions compare equal).
The source index never reaches protocol code: the engine hands the
destination only the payload, like the paper's anonymous ``receive(m)``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from ..simulation.rng import RandomSource
from ..simulation.simtime import SimTime
from .channel import Channel


class ChannelFactory(Protocol):
    """Anything that can build a directed channel for a process pair."""

    def build(self, src: int, dst: int, loss_rng, delay_rng) -> Channel:
        """Create the channel for the directed pair ``src -> dst``."""
        ...

    def describe(self) -> str:
        """Human-readable factory description."""
        ...


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
        substreams.
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
        self._channels: dict[tuple[int, int], Channel] = {}
        #: Per-source dense channel rows in destination order, and their
        #: bound ``transmit`` methods in the same order (what a broadcast
        #: calls: no lookup per destination per send); both built lazily.
        self._rows: list[Optional[list[Channel]]] = [None] * n_processes
        self._transmits: list[Optional[list[Callable]]] = [None] * n_processes

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
            channel = self.channel_factory.build(
                src,
                dst,
                self.random_source.for_component("loss", src * self.n_processes + dst),
                self.random_source.for_component("delay", src * self.n_processes + dst),
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

    def broadcast_fast(
        self, src: int, payload: Any, now: SimTime
    ) -> list[tuple[int, Optional[SimTime]]]:
        """The paper's ``broadcast(m)``: one copy to every process.

        Returns a fresh list of ``(dst, deliver_time)`` pairs in
        destination-index order, the sender itself included, with
        ``deliver_time is None`` meaning the copy was dropped.  Each
        channel draws from its own RNG streams, one copy at a time in that
        order, so runs stay deterministic.
        """
        if not 0 <= src < self.n_processes:
            self._check_index(src)
        transmits = self._transmits[src]
        if transmits is None:
            transmits = self._transmits[src] = [
                channel.transmit for channel in self._row(src)
            ]
        return [(dst, transmit(payload, now))
                for dst, transmit in enumerate(transmits)]

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def total_attempts(self) -> int:
        """Total transmission attempts across all instantiated channels."""
        return sum(c.stats.attempts for c in self._channels.values())

    def total_drops(self) -> int:
        """Total drops across all instantiated channels."""
        return sum(c.stats.dropped for c in self._channels.values())

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
