"""Unit tests for the channel loss models."""

import json
import random

import pytest

from repro.network.loss import (
    AdversarialFiniteLoss,
    BernoulliLoss,
    DropFirstK,
    GilbertElliottLoss,
    LossSpec,
    NoLoss,
    PartitionLoss,
)


class TestNoLoss:
    def test_never_drops(self):
        model = NoLoss()
        assert not any(model.should_drop(0, 1, "k") for _ in range(100))

    def test_describe(self):
        assert NoLoss().describe() == "no-loss"


class TestBernoulliLoss:
    def test_p_zero_never_drops(self):
        model = BernoulliLoss(0.0, random.Random(0))
        assert not any(model.should_drop(0, 1, "k") for _ in range(50))

    def test_p_one_always_drops(self):
        model = BernoulliLoss(1.0, random.Random(0))
        assert all(model.should_drop(0, 1, "k") for _ in range(50))

    def test_empirical_rate_close_to_p(self):
        model = BernoulliLoss(0.3, random.Random(7))
        drops = sum(model.should_drop(0, 1, i) for i in range(5000))
        assert 0.25 < drops / 5000 < 0.35

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(0))
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1, random.Random(0))

    def test_describe_contains_p(self):
        assert "0.3" in BernoulliLoss(0.3, random.Random(0)).describe()

    def test_deterministic_given_rng(self):
        a = BernoulliLoss(0.5, random.Random(3))
        b = BernoulliLoss(0.5, random.Random(3))
        assert [a.should_drop(0, 1, i) for i in range(20)] == [
            b.should_drop(0, 1, i) for i in range(20)
        ]


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(random.Random(0), loss_bad=1.2)

    def test_loses_more_than_good_state_alone(self):
        # With a sticky bad state the average loss rate must exceed loss_good.
        model = GilbertElliottLoss(
            random.Random(1), p_good_to_bad=0.2, p_bad_to_good=0.2,
            loss_good=0.0, loss_bad=1.0,
        )
        drops = sum(model.should_drop(0, 1, i) for i in range(4000))
        assert drops / 4000 > 0.2

    def test_state_transitions_happen(self):
        model = GilbertElliottLoss(
            random.Random(2), p_good_to_bad=0.5, p_bad_to_good=0.5
        )
        states = set()
        for i in range(200):
            model.should_drop(0, 1, i)
            states.add(model.in_bad_state)
        assert states == {True, False}

    def test_describe(self):
        text = GilbertElliottLoss(random.Random(0)).describe()
        assert "gilbert-elliott" in text


class TestDropFirstK:
    def test_drops_exactly_first_k(self):
        model = DropFirstK(3)
        results = [model.should_drop(0, 1, "m") for _ in range(6)]
        assert results == [True, True, True, False, False, False]

    def test_independent_per_key(self):
        model = DropFirstK(1)
        assert model.should_drop(0, 1, "a") is True
        assert model.should_drop(0, 1, "b") is True
        assert model.should_drop(0, 1, "a") is False

    def test_zero_k_never_drops(self):
        model = DropFirstK(0)
        assert model.should_drop(0, 1, "m") is False

    def test_attempts_for(self):
        model = DropFirstK(2)
        model.should_drop(0, 1, "m")
        model.should_drop(0, 1, "m")
        assert model.attempts_for("m") == 2
        assert model.attempts_for("other") == 0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            DropFirstK(-1)


class TestAdversarialFiniteLoss:
    def test_budget_is_exhausted(self):
        model = AdversarialFiniteLoss(4)
        results = [model.should_drop(0, 1, i) for i in range(8)]
        assert results == [True] * 4 + [False] * 4

    def test_remaining_budget(self):
        model = AdversarialFiniteLoss(2)
        model.should_drop(0, 1, 0)
        assert model.remaining_budget == 1

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            AdversarialFiniteLoss(-5)


class TestPartitionLoss:
    def test_drops_crossing_traffic_both_ways(self):
        model = PartitionLoss({0, 1}, {2, 3})
        assert model.should_drop(0, 2, "m")
        assert model.should_drop(3, 1, "m")

    def test_keeps_intra_group_traffic(self):
        model = PartitionLoss({0, 1}, {2, 3})
        assert not model.should_drop(0, 1, "m")
        assert not model.should_drop(2, 3, "m")

    def test_one_way_partition(self):
        model = PartitionLoss({0}, {1}, drop_b_to_a=False)
        assert model.should_drop(0, 1, "m")
        assert not model.should_drop(1, 0, "m")

    def test_rejects_overlapping_groups(self):
        with pytest.raises(ValueError):
            PartitionLoss({0, 1}, {1, 2})

    def test_inner_model_applies_inside_groups(self):
        model = PartitionLoss({0, 1}, {2}, inner_model=DropFirstK(1))
        assert model.should_drop(0, 1, "m") is True
        assert model.should_drop(0, 1, "m") is False


class TestLossSpec:
    def test_none_spec(self):
        assert isinstance(LossSpec.none().build(0, 1, random.Random(0)), NoLoss)

    def test_bernoulli_spec(self):
        model = LossSpec.bernoulli(0.4).build(0, 1, random.Random(0))
        assert isinstance(model, BernoulliLoss)
        assert model.probability == 0.4

    def test_gilbert_spec(self):
        model = LossSpec.gilbert_elliott(loss_bad=0.9).build(0, 1, random.Random(0))
        assert isinstance(model, GilbertElliottLoss)
        assert model.loss_bad == 0.9

    def test_drop_first_k_spec(self):
        model = LossSpec.drop_first_k(2).build(0, 1, random.Random(0))
        assert isinstance(model, DropFirstK)

    def test_adversarial_spec(self):
        model = LossSpec.adversarial_finite(3).build(0, 1, random.Random(0))
        assert isinstance(model, AdversarialFiniteLoss)

    def test_partition_spec(self):
        model = LossSpec.partition({0}, {1}).build(0, 1, random.Random(0))
        assert isinstance(model, PartitionLoss)

    @pytest.mark.parametrize("group_a, group_b, kwargs", [
        ({2, 0}, {3, 1}, {}),
        (frozenset({0, 1}), frozenset({2, 3}), {}),
        (range(2), range(2, 4), {}),
        ([3, 1], (2, 0), {}),
        ({0}, {1, 2, 3}, {"drop_b_to_a": False}),
    ], ids=["sets", "frozensets", "ranges", "unsorted-iterables", "one-way"])
    def test_partition_spec_is_json_and_drops_the_same(self, group_a, group_b,
                                                       kwargs):
        group_a, group_b = list(group_a), list(group_b)
        spec = LossSpec.partition(iter(group_a), iter(group_b), **kwargs)
        assert spec.params == {"group_a": sorted(group_a),
                               "group_b": sorted(group_b), **kwargs}
        assert json.loads(json.dumps(spec.params)) == spec.params
        built = spec.build(0, 1, random.Random(0))
        direct = PartitionLoss(set(group_a), set(group_b), **kwargs)
        assert built.describe() == direct.describe()
        for src in range(4):
            for dst in range(4):
                assert (built.should_drop(src, dst, "m")
                        == direct.should_drop(src, dst, "m"))

    def test_custom_spec(self):
        spec = LossSpec.custom(lambda src, dst, rng: DropFirstK(src + dst))
        model = spec.build(2, 3, random.Random(0))
        assert isinstance(model, DropFirstK)
        assert model.k == 5

    def test_custom_without_factory_rejected(self):
        with pytest.raises(ValueError):
            LossSpec(kind="custom")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LossSpec(kind="quantum")

    def test_batch_parameter_rejected_by_name(self):
        # Scenario dicts written when specs took a block size still carry it.
        with pytest.raises(ValueError, match="'batch'"):
            LossSpec(kind="bernoulli",
                     params={"probability": 0.2, "batch": 64})

    def test_per_channel_instances_are_independent(self):
        spec = LossSpec.drop_first_k(1)
        a = spec.build(0, 1, random.Random(0))
        b = spec.build(0, 2, random.Random(0))
        a.should_drop(0, 1, "m")
        assert b.attempts_for("m") == 0

    def test_describe(self):
        assert "bernoulli" in LossSpec.bernoulli(0.2).describe()
        assert LossSpec.none().describe() == "no-loss"
