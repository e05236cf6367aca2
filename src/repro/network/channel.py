"""Directed point-to-point channels.

A :class:`Channel` models one *directed* link between two processes.  Given a
payload's deduplication key and the current simulated time, it decides
whether the copy is delivered and, if so, after what delay.  Channels never
duplicate or corrupt payloads (the paper's Uniform Integrity channel
property holds by construction: a copy is delivered at most once and only if
it was sent).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from ..simulation.simtime import SimTime
from .delay import DelayModel
from .loss import DedupKey, LossModel


@dataclass(slots=True)
class ChannelStats:
    """Per-channel transmission statistics."""

    attempts: int = 0
    delivered: int = 0
    dropped: int = 0
    forced_deliveries: int = 0

    @property
    def drop_rate(self) -> float:
        """Observed drop rate (0 when nothing was transmitted)."""
        return self.dropped / self.attempts if self.attempts else 0.0


class Channel(abc.ABC):
    """A directed communication link from ``src`` to ``dst``."""

    def __init__(self, src: int, dst: int) -> None:
        if src < 0 or dst < 0:
            raise ValueError("channel endpoints must be non-negative indices")
        self.src = src
        self.dst = dst
        self.stats = ChannelStats()

    @abc.abstractmethod
    def transmit(self, key: DedupKey, now: SimTime) -> Optional[SimTime]:
        """Transmit one copy of the payload identified by *key*.

        Returns
        -------
        Optional[SimTime]
            The delivery time at the destination, or ``None`` if the copy is
            lost.
        """

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return f"{type(self).__name__}({self.src}->{self.dst})"


class LossyChannel(Channel):
    """A channel composed of a loss model and a delay model.

    Parameters
    ----------
    src, dst:
        Directed endpoints.
    loss_model:
        Decides whether each copy is dropped.
    delay_model:
        Samples the transfer delay of delivered copies.
    fairness_bound:
        Optional fairness guard: after this many *consecutive* drops of
        copies sharing the same deduplication key, the next copy is forcibly
        delivered.  This turns any loss model into a bona-fide fair lossy
        channel even on finite runs (see DESIGN.md §3.2).  ``None`` disables
        the guard.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        loss_model: LossModel,
        delay_model: DelayModel,
        fairness_bound: Optional[int] = None,
    ) -> None:
        super().__init__(src, dst)
        if fairness_bound is not None and fairness_bound < 1:
            raise ValueError("fairness_bound must be >= 1 when given")
        self.loss_model = loss_model
        self.delay_model = delay_model
        self.fairness_bound = fairness_bound
        self._consecutive_drops: dict[DedupKey, int] = {}

    def transmit(self, key: DedupKey, now: SimTime) -> Optional[SimTime]:
        stats = self.stats
        stats.attempts += 1
        drop = self.loss_model.should_drop(self.src, self.dst, key)
        consecutive_drops = self._consecutive_drops
        if drop:
            if self.fairness_bound is not None:
                if consecutive_drops.get(key, 0) >= self.fairness_bound:
                    # Fairness guard: the loss model wanted to drop yet
                    # again, but the channel has already dropped
                    # `fairness_bound` consecutive copies of this payload —
                    # force delivery so the Fairness property holds on this
                    # finite run.
                    drop = False
                    stats.forced_deliveries += 1
            if drop:
                stats.dropped += 1
                consecutive_drops[key] = consecutive_drops.get(key, 0) + 1
                return None
        stats.delivered += 1
        # Only non-zero counts are stored (absent key == zero drops), so the
        # common no-drop path costs one membership test instead of growing
        # the dict with a zero for every payload ever transmitted.
        if consecutive_drops and key in consecutive_drops:
            del consecutive_drops[key]
        return now + self.delay_model.sample()

    def describe(self) -> str:
        guard = (
            f", fairness_bound={self.fairness_bound}"
            if self.fairness_bound is not None
            else ""
        )
        return (
            f"LossyChannel({self.src}->{self.dst}, "
            f"loss={self.loss_model.describe()}, "
            f"delay={self.delay_model.describe()}{guard})"
        )
