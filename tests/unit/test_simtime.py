"""Unit tests for repro.simulation.simtime."""

import math

import pytest

from repro.simulation.simtime import (
    NEVER,
    is_never,
    validate_duration,
    validate_time,
)


class TestValidateTime:
    def test_accepts_zero(self):
        assert validate_time(0.0) == 0.0

    def test_accepts_positive_int(self):
        assert validate_time(3) == 3.0

    def test_returns_float(self):
        assert isinstance(validate_time(2), float)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_time(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_time(float("nan"))

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            validate_time(True)

    def test_rejects_string(self):
        with pytest.raises(TypeError):
            validate_time("3.0")

    def test_error_message_uses_name(self):
        with pytest.raises(ValueError, match="deadline"):
            validate_time(-1, name="deadline")

    def test_accepts_infinity(self):
        assert validate_time(math.inf) == math.inf


class TestValidateDuration:
    def test_accepts_positive(self):
        assert validate_duration(1.5) == 1.5

    def test_rejects_zero_by_default(self):
        with pytest.raises(ValueError):
            validate_duration(0.0)

    def test_accepts_zero_when_allowed(self):
        assert validate_duration(0.0, allow_zero=True) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_duration(-1.0, allow_zero=True)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_duration(float("nan"))

    def test_rejects_non_number(self):
        with pytest.raises(TypeError):
            validate_duration(None)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            validate_duration(True)

    def test_error_message_uses_name(self):
        with pytest.raises(ValueError, match="tick_interval"):
            validate_duration(-1.0, name="tick_interval")

    def test_error_message_says_which_bound(self):
        with pytest.raises(ValueError, match="must be positive"):
            validate_duration(0.0)
        with pytest.raises(ValueError, match="must be non-negative"):
            validate_duration(-1.0, allow_zero=True)


class TestNeverSentinel:
    def test_never_is_infinite(self):
        assert math.isinf(NEVER)

    def test_is_never_true_for_sentinel(self):
        assert is_never(NEVER)

    def test_is_never_false_for_finite(self):
        assert not is_never(1e12)

    def test_is_never_false_for_negative_infinity(self):
        assert not is_never(-math.inf)

    def test_is_never_false_for_zero(self):
        assert not is_never(0.0)

    def test_is_never_false_for_nan(self):
        assert not is_never(math.nan)

