"""Unit tests for labels, FD pairs and failure-detector views."""

import random

import pytest

from repro.failure_detectors.base import (
    FailureDetectorView,
    FDPair,
    StaticFailureDetector,
)
from repro.failure_detectors.labels import Label, LabelAssigner


class TestLabel:
    def test_equality_by_value(self):
        assert Label(7) == Label(7)
        assert Label(7) != Label(8)

    def test_hashable(self):
        assert len({Label(1), Label(1), Label(2)}) == 2

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Label("abc")
        with pytest.raises(TypeError):
            Label(True)

    def test_short_form(self):
        assert Label(0xABCD).short() == "abcd"

    def test_repr_is_opaque_hex(self):
        assert "Label(0x" in repr(Label(5))


class TestLabelAssigner:
    def test_assigns_distinct_labels(self):
        assigner = LabelAssigner(10, random.Random(0))
        labels = [assigner.label_of(i) for i in range(10)]
        assert len(set(labels)) == 10

    def test_deterministic_given_rng(self):
        a = LabelAssigner(5, random.Random(3))
        b = LabelAssigner(5, random.Random(3))
        assert a.as_mapping() == b.as_mapping()

    def test_index_of_inverse(self):
        assigner = LabelAssigner(5, random.Random(0))
        for i in range(5):
            assert assigner.index_of(assigner.label_of(i)) == i

    def test_index_of_unknown_label(self):
        assigner = LabelAssigner(3, random.Random(0))
        with pytest.raises(KeyError):
            assigner.index_of(Label(123456789))

    def test_label_of_out_of_range(self):
        assigner = LabelAssigner(3, random.Random(0))
        with pytest.raises(IndexError):
            assigner.label_of(3)

    def test_labels_of_subset(self):
        assigner = LabelAssigner(5, random.Random(0))
        subset = assigner.labels_of([0, 2])
        assert subset == frozenset({assigner.label_of(0), assigner.label_of(2)})

    def test_all_labels(self):
        assigner = LabelAssigner(4, random.Random(0))
        assert len(assigner.all_labels()) == 4

    def test_small_tag_space_still_unique(self):
        # With only 8 bits, collisions are likely during drawing; uniqueness
        # must still be enforced by redrawing.
        assigner = LabelAssigner(20, random.Random(0), bits=8)
        assert len(assigner.all_labels()) == 20

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LabelAssigner(0, random.Random(0))
        with pytest.raises(ValueError):
            LabelAssigner(3, random.Random(0), bits=4)


class TestFDPair:
    def test_rejects_negative_number(self):
        with pytest.raises(ValueError):
            FDPair(Label(1), -1)

    def test_fields(self):
        pair = FDPair(Label(1), 3)
        assert pair.label == Label(1)
        assert pair.number == 3


class TestFailureDetectorView:
    def test_empty_view(self):
        view = FailureDetectorView.empty()
        assert view.is_empty()
        assert len(view) == 0
        assert not view

    def test_empty_view_is_one_shared_instance(self):
        assert FailureDetectorView.empty() is FailureDetectorView.empty()
        assert FailureDetectorView.empty() == FailureDetectorView()

    def test_labels_and_number_for(self):
        view = FailureDetectorView([FDPair(Label(1), 3), FDPair(Label(2), 3)])
        assert view.labels() == frozenset({Label(1), Label(2)})
        assert view.number_for(Label(1)) == 3
        assert view.number_for(Label(9)) is None

    def test_contains(self):
        view = FailureDetectorView([FDPair(Label(1), 3)])
        assert Label(1) in view
        assert Label(2) not in view

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FailureDetectorView([FDPair(Label(1), 2), FDPair(Label(1), 3)])

    def test_equality_ignores_order(self):
        a = FailureDetectorView([FDPair(Label(1), 2), FDPair(Label(2), 2)])
        b = FailureDetectorView([FDPair(Label(2), 2), FDPair(Label(1), 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = FailureDetectorView([FDPair(Label(1), 2)])
        b = FailureDetectorView([FDPair(Label(1), 3)])
        assert a != b

    def test_from_mapping(self):
        view = FailureDetectorView.from_mapping({Label(1): 4})
        assert view.number_for(Label(1)) == 4

    def test_iteration_yields_pairs(self):
        pairs = [FDPair(Label(1), 2), FDPair(Label(2), 2)]
        view = FailureDetectorView(pairs)
        assert list(view) == pairs
        assert view.pairs == tuple(pairs)

    def test_repr_contains_numbers(self):
        assert "2" in repr(FailureDetectorView([FDPair(Label(1), 2)]))


class TestStaticFailureDetector:
    def test_returns_configured_view(self):
        view = FailureDetectorView([FDPair(Label(1), 1)])
        detector = StaticFailureDetector({0: view})
        assert detector.view(0, 10.0) == view

    def test_default_is_empty(self):
        detector = StaticFailureDetector({})
        assert detector.view(3, 0.0).is_empty()

    def test_custom_default(self):
        default = FailureDetectorView([FDPair(Label(5), 2)])
        detector = StaticFailureDetector({}, default=default)
        assert detector.view(0, 0.0) == default

    def test_describe(self):
        assert StaticFailureDetector({}).describe() == "static"
