"""Channel loss models.

The paper's channels are *fair lossy* (§II): a channel may lose messages —
even infinitely many — but if the same message is sent infinitely often to a
correct process, the process eventually receives it; channels never create,
duplicate or garble messages.

A :class:`LossModel` decides, per transmission attempt, whether one copy of a
payload is dropped on one directed channel.  Models are *stateful per
directed channel* (each channel owns its own instance built from a
:class:`LossSpec` factory), and they receive a *deduplication key* describing
the payload so that per-message behaviour (e.g. "drop the first k copies of
this particular message") can be expressed.

The finite-run counterpart of the fairness property is implemented one layer
up, in :class:`repro.network.fair_lossy.FairLossyChannel`, as an optional
*fairness guard* bounding the number of consecutive drops per key.
"""

from __future__ import annotations

import abc
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional

DedupKey = Hashable


class LossModel(abc.ABC):
    """Decides whether one transmission attempt is dropped."""

    @abc.abstractmethod
    def should_drop(self, src: int, dst: int, key: DedupKey) -> bool:
        """Return ``True`` if this copy of the payload is lost.

        Parameters
        ----------
        src, dst:
            Directed channel endpoints (processes indices).
        key:
            Deduplication key of the payload (identical retransmissions of
            the same protocol message share a key).
        """

    def describe(self) -> str:
        """Human-readable description used in experiment reports."""
        return type(self).__name__


class NoLoss(LossModel):
    """A channel that never drops anything (reliable-channel baseline)."""

    def should_drop(self, src: int, dst: int, key: DedupKey) -> bool:
        return False

    def describe(self) -> str:
        return "no-loss"


class BernoulliLoss(LossModel):
    """Drop each copy independently with probability *p*.

    With ``p < 1`` and unbounded retransmissions this is a fair lossy channel
    with probability 1; the fairness guard of
    :class:`~repro.network.fair_lossy.FairLossyChannel` makes the guarantee
    unconditional on finite runs.
    """

    def __init__(self, probability: float, rng: random.Random) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {probability}")
        self.probability = float(probability)
        self._rng = rng

    def should_drop(self, src: int, dst: int, key: DedupKey) -> bool:
        if self.probability == 0.0:
            return False
        if self.probability == 1.0:
            return True
        return self._rng.random() < self.probability

    def describe(self) -> str:
        return f"bernoulli(p={self.probability:g})"


class GilbertElliottLoss(LossModel):
    """Two-state bursty loss model (Gilbert–Elliott).

    The channel alternates between a *good* and a *bad* state with the given
    transition probabilities evaluated per transmission attempt; each state
    has its own drop probability.  This models correlated (bursty) loss,
    which stresses retransmission-based protocols harder than independent
    loss at the same average rate.
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        p_good_to_bad: float = 0.05,
        p_bad_to_good: float = 0.25,
        loss_good: float = 0.01,
        loss_bad: float = 0.8,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = rng
        self._in_bad_state = False

    def should_drop(self, src: int, dst: int, key: DedupKey) -> bool:
        # State transition first, then the per-state loss draw.
        if self._in_bad_state:
            if self._rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        loss_probability = self.loss_bad if self._in_bad_state else self.loss_good
        return self._rng.random() < loss_probability

    @property
    def in_bad_state(self) -> bool:
        """Whether the channel is currently in the lossy burst state."""
        return self._in_bad_state

    def describe(self) -> str:
        return (
            f"gilbert-elliott(g->b={self.p_good_to_bad:g}, "
            f"b->g={self.p_bad_to_good:g}, "
            f"loss_g={self.loss_good:g}, loss_b={self.loss_bad:g})"
        )


class DropFirstK(LossModel):
    """Deterministically drop the first *k* copies of each distinct payload.

    Useful for fully deterministic unit tests of retransmission logic: the
    channel is trivially fair lossy (after k drops every further copy goes
    through) and the number of retransmissions needed is known exactly.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = int(k)
        self._attempts: dict[DedupKey, int] = defaultdict(int)

    def should_drop(self, src: int, dst: int, key: DedupKey) -> bool:
        attempt = self._attempts[key]
        self._attempts[key] = attempt + 1
        return attempt < self.k

    def attempts_for(self, key: DedupKey) -> int:
        """Number of transmission attempts seen so far for *key*."""
        return self._attempts.get(key, 0)

    def describe(self) -> str:
        return f"drop-first-{self.k}"


class AdversarialFiniteLoss(LossModel):
    """Drop every copy until a finite adversary budget is exhausted.

    The adversary drops the first *budget* transmissions on the channel
    (regardless of payload), then becomes perfectly reliable.  This is the
    strongest behaviour compatible with the fair lossy definition for a
    finite run and is used in worst-case liveness tests.
    """

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = int(budget)
        self._dropped = 0

    def should_drop(self, src: int, dst: int, key: DedupKey) -> bool:
        if self._dropped < self.budget:
            self._dropped += 1
            return True
        return False

    @property
    def remaining_budget(self) -> int:
        """How many more drops the adversary may still perform."""
        return self.budget - self._dropped

    def describe(self) -> str:
        return f"adversarial-finite(budget={self.budget})"


class PartitionLoss(LossModel):
    """Drop every message crossing a process partition.

    This is the channel behaviour of the indistinguishability argument in the
    paper's impossibility proof (Theorem 2, run ``R2``): all messages ever
    sent from the ``S1`` side towards the ``S2`` side are lost.  Note that a
    permanent partition is *not* a fair lossy channel — which is exactly the
    point of the proof: the finite prefix observed by ``S1`` is
    indistinguishable from a fair lossy run in which ``S2`` crashed.

    Parameters
    ----------
    group_a, group_b:
        The two sides of the partition (process index sets).
    drop_a_to_b, drop_b_to_a:
        Which crossing directions are severed.
    inner_model:
        Loss model applied to non-crossing traffic (defaults to no loss).
    """

    def __init__(
        self,
        group_a: frozenset[int] | set[int],
        group_b: frozenset[int] | set[int],
        *,
        drop_a_to_b: bool = True,
        drop_b_to_a: bool = True,
        inner_model: Optional[LossModel] = None,
    ) -> None:
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        if self.group_a & self.group_b:
            raise ValueError("partition groups must be disjoint")
        self.drop_a_to_b = drop_a_to_b
        self.drop_b_to_a = drop_b_to_a
        self.inner_model = inner_model or NoLoss()

    def should_drop(self, src: int, dst: int, key: DedupKey) -> bool:
        if self.drop_a_to_b and src in self.group_a and dst in self.group_b:
            return True
        if self.drop_b_to_a and src in self.group_b and dst in self.group_a:
            return True
        return self.inner_model.should_drop(src, dst, key)

    def describe(self) -> str:
        return (
            f"partition(A={sorted(self.group_a)}, B={sorted(self.group_b)}, "
            f"inner={self.inner_model.describe()})"
        )


@dataclass(frozen=True)
class LossSpec:
    """Declarative factory of per-channel :class:`LossModel` instances.

    Channels need independent model instances (they keep per-channel state
    and per-channel random substreams).  A spec captures *which* model and
    *its parameters*; :meth:`build` instantiates it for a directed channel.

    Attributes
    ----------
    kind:
        One of ``"none"``, ``"bernoulli"``, ``"gilbert_elliott"``,
        ``"drop_first_k"``, ``"adversarial_finite"``, ``"partition"``,
        ``"custom"``.
    params:
        Keyword parameters of the model.
    factory:
        For ``kind="custom"``: a callable ``(src, dst, rng) -> LossModel``.
    """

    kind: str = "none"
    params: dict = field(default_factory=dict)
    factory: Optional[Callable[[int, int, random.Random], LossModel]] = None

    _KINDS = (
        "none",
        "bernoulli",
        "gilbert_elliott",
        "drop_first_k",
        "adversarial_finite",
        "partition",
        "custom",
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown loss kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind == "custom" and self.factory is None:
            raise ValueError("custom loss spec requires a factory")
        if "batch" in self.params:
            # Stored scenario dicts may still carry the key; fail here, by
            # name, not as a TypeError when the first channel is built.
            raise ValueError(
                "loss spec parameter 'batch' is not supported: channels "
                "sample one copy at a time"
            )

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def none(cls) -> "LossSpec":
        """No loss (reliable links)."""
        return cls(kind="none")

    @classmethod
    def bernoulli(cls, probability: float) -> "LossSpec":
        """Independent loss with the given probability."""
        return cls(kind="bernoulli", params={"probability": probability})

    @classmethod
    def gilbert_elliott(cls, **params: float) -> "LossSpec":
        """Bursty loss; see :class:`GilbertElliottLoss` for parameters."""
        return cls(kind="gilbert_elliott", params=dict(params))

    @classmethod
    def drop_first_k(cls, k: int) -> "LossSpec":
        """Deterministically drop the first *k* copies of each payload."""
        return cls(kind="drop_first_k", params={"k": k})

    @classmethod
    def adversarial_finite(cls, budget: int) -> "LossSpec":
        """Adversarial finite-budget loss."""
        return cls(kind="adversarial_finite", params={"budget": budget})

    @classmethod
    def partition(cls, group_a: Iterable[int], group_b: Iterable[int],
                  **kwargs) -> "LossSpec":
        """Permanent partition between two process groups.

        The groups are kept as sorted lists, so the spec has a JSON form
        (campaign cell keys, counterexample artifacts); :class:`PartitionLoss`
        turns them back into sets.
        """
        return cls(kind="partition",
                   params={"group_a": sorted(group_a),
                           "group_b": sorted(group_b), **kwargs})

    @classmethod
    def custom(cls, factory: Callable[[int, int, random.Random], LossModel]) -> "LossSpec":
        """Arbitrary user-supplied per-channel factory."""
        return cls(kind="custom", factory=factory)

    @property
    def draws(self) -> bool:
        """Whether the models built may draw from their rng (a Bernoulli one
        at ``p`` 0 or 1 does not)."""
        return self.kind in ("gilbert_elliott", "custom") or (
            self.kind == "bernoulli" and 0 < self.params.get("probability", 0) < 1)

    # ------------------------------------------------------------------ #
    def build(self, src: int, dst: int, rng: Optional[random.Random]) -> LossModel:
        """Instantiate the loss model for the directed channel *src* → *dst*."""
        if self.kind == "none":
            return NoLoss()
        if self.kind == "bernoulli":
            return BernoulliLoss(rng=rng, **self.params)
        if self.kind == "gilbert_elliott":
            return GilbertElliottLoss(rng=rng, **self.params)
        if self.kind == "drop_first_k":
            return DropFirstK(**self.params)
        if self.kind == "adversarial_finite":
            return AdversarialFiniteLoss(**self.params)
        if self.kind == "partition":
            return PartitionLoss(**self.params)
        assert self.kind == "custom" and self.factory is not None
        return self.factory(src, dst, rng)

    def describe(self) -> str:
        """Human-readable description used in reports."""
        if self.kind == "bernoulli":
            return f"bernoulli(p={self.params.get('probability')})"
        if self.kind == "none":
            return "no-loss"
        return self.kind
