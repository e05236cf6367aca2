"""Simulated-time primitives.

The paper's system model (§II) postulates a *global clock* whose values are
the positive natural numbers, used purely as an auxiliary notion: processes
can neither read nor modify it.  The simulator keeps the same discipline —
simulated time is a float owned by the engine, protocol code never sees it.

This module centralises the small amount of arithmetic and validation done on
simulated timestamps so the rest of the code base can treat ``SimTime`` as an
opaque, totally ordered quantity.
"""

from __future__ import annotations

import math

#: Simulated time is represented as a non-negative float (seconds of
#: simulated time; the unit is arbitrary but consistent across the library).
SimTime = float

#: A sentinel meaning "never happens" (e.g. a process that never crashes).
NEVER: SimTime = math.inf


def validate_time(value: SimTime, *, name: str = "time") -> SimTime:
    """Validate that *value* is a usable simulated timestamp.

    Parameters
    ----------
    value:
        Candidate timestamp.
    name:
        Name used in error messages.

    Returns
    -------
    SimTime
        The validated value (unchanged).

    Raises
    ------
    ValueError
        If the value is negative or NaN.
    TypeError
        If the value is not a real number.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def validate_duration(value: float, *, name: str = "duration",
                      allow_zero: bool = False) -> float:
    """Validate a duration (a difference of simulated timestamps).

    Parameters
    ----------
    value:
        Candidate duration.
    name:
        Name used in error messages.
    allow_zero:
        Whether a zero duration is acceptable.

    Returns
    -------
    float
        The validated duration.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    if value < 0.0 or (value == 0.0 and not allow_zero):
        comparator = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be {comparator}, got {value}")
    return value


def is_never(value: SimTime) -> bool:
    """Return ``True`` if *value* is the "never" sentinel (+inf)."""
    return math.isinf(value) and value > 0
