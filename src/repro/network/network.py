"""The completely connected anonymous network.

The paper's processes communicate through a completely connected network of
bidirectional fair lossy channels using a single ``broadcast(m)`` primitive
that sends ``m`` to *all* processes, including the sender itself (§I, §II).

:class:`Network` owns the ``n × n`` directed channels (built lazily from a
channel factory) and implements the broadcast primitive by handing one copy
of the payload to every directed channel originating at the sender.  It
returns a ``(dst, deliver_time)`` pair per destination (``None`` = dropped)
so the engine can schedule the corresponding receive events and record
drops.  The source index never reaches protocol code: the engine hands the
destination only the payload, like the paper's anonymous ``receive(m)``.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from ..simulation.rng import RandomSource
from ..simulation.simtime import SimTime
from .channel import Channel
from .loss import DedupKey


class ChannelFactory(Protocol):
    """Anything that can build a directed channel for a process pair."""

    def build(self, src: int, dst: int, loss_rng, delay_rng) -> Channel:
        """Create the channel for the directed pair ``src -> dst``."""
        ...

    def describe(self) -> str:
        """Human-readable factory description."""
        ...


def default_dedup_key(payload: Any) -> DedupKey:
    """Default deduplication key: the payload itself (payloads are hashable
    frozen dataclasses, and identical retransmissions compare equal)."""
    return payload


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
    loopback_delivers:
        Whether a broadcast also delivers to the sender itself.  The paper's
        primitive includes the sender («send a message to all processes
        (including itself)»), so this defaults to ``True``.
    dedup_key:
        Function mapping a payload to its deduplication key (used by loss
        models and the fairness guard to recognise retransmissions of the
        same protocol message).
    """

    def __init__(
        self,
        n_processes: int,
        channel_factory: ChannelFactory,
        random_source: Optional[RandomSource] = None,
        *,
        loopback_delivers: bool = True,
        dedup_key=default_dedup_key,
    ) -> None:
        if n_processes < 1:
            raise ValueError("n_processes must be positive")
        self.n_processes = n_processes
        self.channel_factory = channel_factory
        self.random_source = random_source or RandomSource(0)
        self.loopback_delivers = loopback_delivers
        self.dedup_key = dedup_key
        self._channels: dict[tuple[int, int], Channel] = {}
        #: Per-source dense channel rows, built lazily for the broadcast
        #: fast path (avoids a dict lookup per destination per send).  The
        #: ``src`` slot is ``None`` when loopback is disabled.
        self._rows: list[Optional[list[Optional[Channel]]]] = [None] * n_processes
        #: Reusable result buffer for :meth:`broadcast_fast`.  Safe because
        #: the engine fully consumes it before any code path can broadcast
        #: again (protocol handlers run from later queue events).
        self._fast_buffer: list[tuple[int, Optional[SimTime]]] = []

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
    def _row(self, src: int) -> list[Optional[Channel]]:
        """Dense destination-ordered channel row for *src* (built lazily).

        When loopback is disabled the ``src`` slot holds ``None``: the
        self-channel must not be instantiated.
        """
        row = self._rows[src]
        if row is None:
            row = [
                None if dst == src and not self.loopback_delivers
                else self.channel(src, dst)
                for dst in range(self.n_processes)
            ]
            self._rows[src] = row
        return row

    def broadcast_fast(
        self, src: int, payload: Any, now: SimTime
    ) -> list[tuple[int, Optional[SimTime]]]:
        """The paper's ``broadcast(m)``: one copy to every process.

        Returns ``(dst, deliver_time)`` pairs in destination-index order
        (including the sender itself when loopback is enabled), with
        ``deliver_time is None`` meaning the copy was dropped.  Each
        channel draws from its own RNG streams, one copy at a time in that
        order, so runs stay deterministic.  The returned list is a reusable
        buffer owned by the network: callers must fully consume it before
        invoking ``broadcast_fast`` again (the engine does).
        """
        self._check_index(src)
        key = self.dedup_key(payload)
        row = self._row(src)
        loopback = self.loopback_delivers
        out = self._fast_buffer
        out.clear()
        for dst in range(self.n_processes):
            if dst == src and not loopback:
                continue
            out.append((dst, row[dst].transmit(key, now)))
        return out

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def total_attempts(self) -> int:
        """Total transmission attempts across all instantiated channels."""
        return sum(c.stats.attempts for c in self._channels.values())

    def total_drops(self) -> int:
        """Total drops across all instantiated channels."""
        return sum(c.stats.dropped for c in self._channels.values())

    def observed_drop_rate(self) -> float:
        """Aggregate observed drop rate across all channels."""
        attempts = self.total_attempts()
        return self.total_drops() / attempts if attempts else 0.0

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
