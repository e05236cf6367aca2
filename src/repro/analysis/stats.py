"""Small statistics helpers used by the experiment harness.

Campaign reports summarise every configuration over its seeds: means,
spreads and percentiles.  Nothing here is novel — it exists
so that the experiment modules stay readable and the numerics are tested in
one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p95: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (JSON friendly)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "p95": self.p95,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> Optional[SummaryStats]:
    """Summary statistics of *values* (``None`` for an empty sample)."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return None
    return SummaryStats(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        median=float(np.median(data)),
        p95=float(np.percentile(data, 95)),
        maximum=float(data.max()),
    )
