"""Reliable and quasi-reliable channels (baseline channel models).

The paper contrasts fair lossy channels with the *reliable* and
*quasi-reliable* channels commonly assumed in the literature (§I):

* **Reliable** — if ``p`` sends ``m`` to a correct ``q``, then ``q``
  eventually receives ``m`` (no loss at all in the simulator).
* **Quasi-reliable** — if correct ``p`` sends ``m`` to correct ``q``, then
  ``q`` eventually receives ``m``.  The simulator realises the weaker
  guarantee by allowing copies sent by a process that crashes *before the
  copy would arrive* to be lost (the classic "message in the output buffer
  dies with the sender" behaviour).

Both are provided so baseline broadcast protocols (eager reliable broadcast,
best-effort broadcast) can be evaluated under the channel assumptions they
were designed for, and so the experiments can show what breaks when those
assumptions are replaced by fair lossy links.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..simulation.simtime import SimTime
from .channel import Channel
from .delay import DelayModel, DelaySpec
from .loss import DedupKey


class ReliableChannel(Channel):
    """A channel that delivers every copy after a sampled delay."""

    def __init__(self, src: int, dst: int, delay_model: DelayModel) -> None:
        super().__init__(src, dst)
        self.delay_model = delay_model

    def transmit(self, key: DedupKey, now: SimTime) -> Optional[SimTime]:
        self.stats.attempts += 1
        self.stats.delivered += 1
        return now + self.delay_model.sample()

    def describe(self) -> str:
        return (
            f"ReliableChannel({self.src}->{self.dst}, "
            f"delay={self.delay_model.describe()})"
        )


class QuasiReliableChannel(Channel):
    """Delivers every copy unless the *sender* crashes before arrival.

    Parameters
    ----------
    src, dst:
        Directed endpoints.
    delay_model:
        Transfer delay distribution.
    sender_crash_time:
        A callable returning the sender's crash time (``inf`` if correct).
        Copies whose arrival would postdate the sender's crash are dropped,
        modelling in-flight messages lost together with the crashed sender's
        outgoing buffers.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        delay_model: DelayModel,
        sender_crash_time: Callable[[int], SimTime],
    ) -> None:
        super().__init__(src, dst)
        self.delay_model = delay_model
        self._sender_crash_time = sender_crash_time

    def transmit(self, key: DedupKey, now: SimTime) -> Optional[SimTime]:
        self.stats.attempts += 1
        deliver_time = now + self.delay_model.sample()
        if deliver_time >= self._sender_crash_time(self.src):
            self.stats.dropped += 1
            return None
        self.stats.delivered += 1
        return deliver_time

    def describe(self) -> str:
        return (
            f"QuasiReliableChannel({self.src}->{self.dst}, "
            f"delay={self.delay_model.describe()})"
        )


class ReliableChannelFactory:
    """Builds one :class:`ReliableChannel` per directed process pair."""

    def __init__(self, delay_spec: Optional[DelaySpec] = None) -> None:
        self.delay_spec = delay_spec or DelaySpec.fixed(1.0)
        self.draws = (False, self.delay_spec.draws)

    def build(self, src: int, dst: int, loss_rng: Optional[random.Random],
              delay_rng: Optional[random.Random]) -> ReliableChannel:
        """Instantiate the channel for the directed pair *src* → *dst*."""
        return ReliableChannel(
            src, dst, delay_model=self.delay_spec.build(src, dst, delay_rng)
        )

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return f"reliable(delay={self.delay_spec.describe()})"


class QuasiReliableChannelFactory:
    """Builds one :class:`QuasiReliableChannel` per directed process pair."""

    def __init__(
        self,
        sender_crash_time: Callable[[int], SimTime],
        delay_spec: Optional[DelaySpec] = None,
    ) -> None:
        self.delay_spec = delay_spec or DelaySpec.fixed(1.0)
        self.draws = (False, self.delay_spec.draws)
        self._sender_crash_time = sender_crash_time

    def build(self, src: int, dst: int, loss_rng: Optional[random.Random],
              delay_rng: Optional[random.Random]) -> QuasiReliableChannel:
        """Instantiate the channel for the directed pair *src* → *dst*."""
        return QuasiReliableChannel(
            src,
            dst,
            delay_model=self.delay_spec.build(src, dst, delay_rng),
            sender_crash_time=self._sender_crash_time,
        )

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return f"quasi-reliable(delay={self.delay_spec.describe()})"
