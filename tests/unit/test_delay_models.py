"""Unit tests for the channel delay models."""

import random

import pytest

from repro.network.delay import (
    DelaySpec,
    ExponentialDelay,
    FixedDelay,
    UniformDelay,
)


class TestFixedDelay:
    def test_constant(self):
        model = FixedDelay(0.7)
        assert all(model.sample() == 0.7 for _ in range(5))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            FixedDelay(0.0)

    def test_describe(self):
        assert "0.7" in FixedDelay(0.7).describe()


class TestUniformDelay:
    def test_within_bounds(self):
        model = UniformDelay(random.Random(0), low=0.2, high=0.9)
        samples = [model.sample() for _ in range(200)]
        assert all(0.2 <= s <= 0.9 for s in samples)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            UniformDelay(random.Random(0), low=1.0, high=0.5)

    def test_rejects_non_positive_low(self):
        with pytest.raises(ValueError):
            UniformDelay(random.Random(0), low=0.0, high=1.0)

    def test_deterministic_given_rng(self):
        a = UniformDelay(random.Random(5))
        b = UniformDelay(random.Random(5))
        assert [a.sample() for _ in range(5)] == [b.sample() for _ in range(5)]

    def test_describe(self):
        assert "uniform" in UniformDelay(random.Random(0)).describe()


class TestExponentialDelay:
    def test_positive_samples(self):
        model = ExponentialDelay(random.Random(1), mean=0.5)
        assert all(model.sample() > 0 for _ in range(200))

    def test_cap_respected(self):
        model = ExponentialDelay(random.Random(1), mean=5.0, cap=1.0)
        assert all(model.sample() <= 1.0 for _ in range(200))

    def test_minimum_respected(self):
        model = ExponentialDelay(random.Random(1), mean=0.001, minimum=0.01)
        assert all(model.sample() >= 0.01 for _ in range(200))

    def test_mean_roughly_matches(self):
        model = ExponentialDelay(random.Random(2), mean=0.5)
        samples = [model.sample() for _ in range(5000)]
        assert 0.4 < sum(samples) / len(samples) < 0.6

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExponentialDelay(random.Random(0), mean=0.0)
        with pytest.raises(ValueError):
            ExponentialDelay(random.Random(0), mean=1.0, cap=0.0)
        with pytest.raises(ValueError):
            ExponentialDelay(random.Random(0), mean=1.0, minimum=0.0)

    def test_describe_mentions_cap(self):
        assert "cap" in ExponentialDelay(random.Random(0), mean=1.0, cap=2.0).describe()


class TestDelaySpec:
    def test_fixed_spec(self):
        model = DelaySpec.fixed(2.0).build(0, 1, random.Random(0))
        assert isinstance(model, FixedDelay)
        assert model.delay == 2.0

    def test_uniform_spec(self):
        model = DelaySpec.uniform(0.1, 0.2).build(0, 1, random.Random(0))
        assert isinstance(model, UniformDelay)

    def test_exponential_spec(self):
        model = DelaySpec.exponential(mean=0.3, cap=1.0).build(0, 1, random.Random(0))
        assert isinstance(model, ExponentialDelay)
        assert model.cap == 1.0

    def test_exponential_spec_without_cap(self):
        model = DelaySpec.exponential(mean=0.3).build(0, 1, random.Random(0))
        assert model.cap is None

    def test_custom_spec(self):
        spec = DelaySpec.custom(lambda src, dst, rng: FixedDelay(src + dst + 1))
        assert spec.build(1, 2, random.Random(0)).delay == 4

    def test_custom_without_factory_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec(kind="custom")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DelaySpec(kind="warp")

    @pytest.mark.parametrize("kind, params", [
        ("uniform", {"low": 0.05, "high": 0.5, "batch": 64}),
        ("exponential", {"mean": 0.3, "batch": 64}),
    ])
    def test_batch_parameter_rejected_by_name(self, kind, params):
        # Scenario dicts written when specs took a block size still carry it.
        with pytest.raises(ValueError, match="'batch'"):
            DelaySpec(kind=kind, params=params)

    def test_describe(self):
        assert "fixed" in DelaySpec.fixed(1.0).describe()
        assert "uniform" in DelaySpec.uniform().describe()
        assert "exponential" in DelaySpec.exponential().describe()
