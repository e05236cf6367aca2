"""Channel delay models.

Asynchrony in the paper's model means there is no bound on message transfer
delays (nor on relative process speeds).  The simulator realises asynchrony
by drawing a per-copy channel delay from a configurable distribution; the
protocols never read the clock, so any positive-delay distribution yields a
legitimate asynchronous schedule.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Callable, Optional


class DelayModel(abc.ABC):
    """Produces per-copy channel delays."""

    @abc.abstractmethod
    def sample(self) -> float:
        """Return the transfer delay for one transmitted copy (``> 0``)."""

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return type(self).__name__


class FixedDelay(DelayModel):
    """Constant transfer delay (synchronous-looking, fully deterministic)."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay <= 0:
            raise ValueError("delay must be positive")
        self.delay = float(delay)

    def sample(self) -> float:
        return self.delay

    def describe(self) -> str:
        return f"fixed({self.delay:g})"


class UniformDelay(DelayModel):
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, rng: random.Random, low: float = 0.1, high: float = 1.0) -> None:
        if low <= 0 or high <= 0:
            raise ValueError("delay bounds must be positive")
        if high < low:
            raise ValueError("high must be >= low")
        self.low = float(low)
        self.high = float(high)
        self._rng = rng
        self._random = rng.random

    def sample(self) -> float:
        # ``random.uniform``'s own expression, without its frame.
        return self.low + (self.high - self.low) * self._random()

    def describe(self) -> str:
        return f"uniform({self.low:g}, {self.high:g})"


class ExponentialDelay(DelayModel):
    """Exponentially distributed delay with an optional cap.

    A heavy-ish tailed delay distribution exercises genuinely asynchronous
    schedules (late messages overtaken by retransmissions, "fast delivery"
    of ACKs before the original MSG as discussed in the paper's §III remark).
    """

    def __init__(self, rng: random.Random, mean: float = 0.5,
                 cap: Optional[float] = None, minimum: float = 1e-3) -> None:
        if mean <= 0:
            raise ValueError("mean must be positive")
        if cap is not None and cap <= 0:
            raise ValueError("cap must be positive when given")
        if minimum <= 0:
            raise ValueError("minimum must be positive")
        self.mean = float(mean)
        self.cap = float(cap) if cap is not None else None
        self.minimum = float(minimum)
        self._rng = rng

    def sample(self) -> float:
        value = self._rng.expovariate(1.0 / self.mean)
        value = max(value, self.minimum)
        if self.cap is not None:
            value = min(value, self.cap)
        return value

    def describe(self) -> str:
        cap = f", cap={self.cap:g}" if self.cap is not None else ""
        return f"exponential(mean={self.mean:g}{cap})"


@dataclass(frozen=True)
class DelaySpec:
    """Declarative factory of per-channel :class:`DelayModel` instances.

    Attributes
    ----------
    kind:
        One of ``"fixed"``, ``"uniform"``, ``"exponential"``, ``"custom"``.
    params:
        Keyword parameters of the model.
    factory:
        For ``kind="custom"``: a callable ``(src, dst, rng) -> DelayModel``.
    """

    kind: str = "fixed"
    params: dict = field(default_factory=dict)
    factory: Optional[Callable[[int, int, random.Random], DelayModel]] = None

    _KINDS = ("fixed", "uniform", "exponential", "custom")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown delay kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind == "custom" and self.factory is None:
            raise ValueError("custom delay spec requires a factory")
        if "batch" in self.params:
            # Stored scenario dicts may still carry the key; fail here, by
            # name, not as a TypeError when the first channel is built.
            raise ValueError(
                "delay spec parameter 'batch' is not supported: channels "
                "sample one copy at a time"
            )

    @classmethod
    def fixed(cls, delay: float = 1.0) -> "DelaySpec":
        """Constant delay."""
        return cls(kind="fixed", params={"delay": delay})

    @classmethod
    def uniform(cls, low: float = 0.1, high: float = 1.0) -> "DelaySpec":
        """Uniform delay in ``[low, high]``."""
        return cls(kind="uniform", params={"low": low, "high": high})

    @classmethod
    def exponential(cls, mean: float = 0.5,
                    cap: Optional[float] = None) -> "DelaySpec":
        """Exponential delay with the given mean (optionally capped)."""
        params: dict = {"mean": mean}
        if cap is not None:
            params["cap"] = cap
        return cls(kind="exponential", params=params)

    @classmethod
    def custom(cls, factory: Callable[[int, int, random.Random], DelayModel]) -> "DelaySpec":
        """Arbitrary user-supplied per-channel factory."""
        return cls(kind="custom", factory=factory)

    @property
    def draws(self) -> bool:
        """Whether the models built may draw from their rng."""
        return self.kind != "fixed"

    def build(self, src: int, dst: int, rng: Optional[random.Random]) -> DelayModel:
        """Instantiate the delay model for the directed channel *src* → *dst*."""
        if self.kind == "fixed":
            return FixedDelay(**self.params)
        if self.kind == "uniform":
            return UniformDelay(rng=rng, **self.params)
        if self.kind == "exponential":
            return ExponentialDelay(rng=rng, **self.params)
        assert self.kind == "custom" and self.factory is not None
        return self.factory(src, dst, rng)

    def describe(self) -> str:
        """Human-readable description used in reports."""
        if self.kind == "fixed":
            return f"fixed({self.params.get('delay', 1.0)})"
        if self.kind == "uniform":
            return f"uniform({self.params.get('low')}, {self.params.get('high')})"
        if self.kind == "exponential":
            return f"exponential(mean={self.params.get('mean')})"
        return self.kind
