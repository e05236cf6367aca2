"""Fair lossy channels (the paper's channel model).

A fair lossy channel (§II) satisfies:

* **Fairness** — if ``p`` sends a message ``m`` to ``q`` an infinite number
  of times and ``q`` is correct, then ``q`` eventually receives ``m``.
* **Uniform Integrity** — if ``q`` receives ``m`` from ``p`` then ``p``
  previously sent ``m``; and ``q`` receives ``m`` infinitely often only if
  ``p`` sends it infinitely often.

:class:`FairLossyChannel` is a :class:`~repro.network.channel.LossyChannel`
whose fairness guard is on by default, which makes the Fairness property hold
unconditionally on finite simulated runs (after at most ``fairness_bound``
consecutive losses of the same payload the next copy gets through).  Uniform
Integrity holds by construction: the simulator never fabricates or duplicates
envelopes.
"""

from __future__ import annotations

import random
from typing import Optional

from .channel import LossyChannel
from .delay import DelayModel, DelaySpec
from .loss import LossModel, LossSpec

#: Default bound on consecutive per-payload drops used by the fairness guard.
DEFAULT_FAIRNESS_BOUND = 25


class FairLossyChannel(LossyChannel):
    """A lossy channel with the fairness guard enabled by default."""

    def __init__(
        self,
        src: int,
        dst: int,
        loss_model: LossModel,
        delay_model: DelayModel,
        fairness_bound: Optional[int] = DEFAULT_FAIRNESS_BOUND,
    ) -> None:
        super().__init__(
            src,
            dst,
            loss_model=loss_model,
            delay_model=delay_model,
            fairness_bound=fairness_bound,
        )


class FairLossyChannelFactory:
    """Builds one :class:`FairLossyChannel` per directed process pair.

    Parameters
    ----------
    loss_spec:
        Declarative loss-model description (per-channel instances are
        created with independent random substreams).
    delay_spec:
        Declarative delay-model description.
    fairness_bound:
        Fairness guard bound shared by every channel; ``None`` disables the
        guard (Bernoulli channels then satisfy fairness only almost surely).
    """

    def __init__(
        self,
        loss_spec: Optional[LossSpec] = None,
        delay_spec: Optional[DelaySpec] = None,
        fairness_bound: Optional[int] = DEFAULT_FAIRNESS_BOUND,
    ) -> None:
        self.loss_spec = loss_spec or LossSpec.none()
        self.delay_spec = delay_spec or DelaySpec.fixed(1.0)
        self.fairness_bound = fairness_bound
        #: Whether the channels draw from their (loss, delay) streams.
        self.draws = (self.loss_spec.draws, self.delay_spec.draws)

    def build(self, src: int, dst: int, loss_rng: Optional[random.Random],
              delay_rng: Optional[random.Random]) -> FairLossyChannel:
        """Instantiate the channel for the directed pair *src* → *dst*."""
        return FairLossyChannel(
            src,
            dst,
            loss_model=self.loss_spec.build(src, dst, loss_rng),
            delay_model=self.delay_spec.build(src, dst, delay_rng),
            fairness_bound=self.fairness_bound,
        )

    def describe(self) -> str:
        """Human-readable description used in reports."""
        guard = (
            f"fairness_bound={self.fairness_bound}"
            if self.fairness_bound is not None
            else "no fairness guard"
        )
        return (
            f"fair-lossy(loss={self.loss_spec.describe()}, "
            f"delay={self.delay_spec.describe()}, {guard})"
        )
