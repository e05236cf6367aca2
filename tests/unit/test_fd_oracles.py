"""Unit tests for the AΘ / AP* oracles and the ground-truth oracle under them."""

import random

import pytest

from repro.failure_detectors.apstar import APStarOracle
from repro.failure_detectors.atheta import AThetaOracle
from repro.failure_detectors.base import FailureDetectorView
from repro.failure_detectors.oracle import GroundTruthOracle
from repro.failure_detectors.policies import DisseminationPolicy
from repro.simulation.faults import CrashSchedule


def make_oracle(n=5, crashes=None, seed=0):
    schedule = CrashSchedule.crash_at(n, crashes or {})
    return GroundTruthOracle(schedule, rng=random.Random(seed))


class TestGroundTruthOracle:
    def test_correct_and_faulty(self):
        oracle = make_oracle(4, {3: 5.0})
        assert oracle.is_correct(0)
        assert oracle.is_faulty(3)
        assert oracle.correct_indices() == (0, 1, 2)
        assert oracle.n_correct == 3

    def test_labels_are_consistent(self):
        oracle = make_oracle(4, {3: 5.0})
        assert oracle.index_of(oracle.label_of(2)) == 2
        assert len(oracle.labels_of_all()) == 4
        assert len(oracle.labels_of_correct()) == 3

    def test_size_mismatch_rejected(self):
        from repro.failure_detectors.labels import LabelAssigner

        schedule = CrashSchedule.none(3)
        labels = LabelAssigner(4, random.Random(0))
        with pytest.raises(ValueError):
            GroundTruthOracle(schedule, labels=labels)

    def test_describe(self):
        assert "n=5" in make_oracle(5).describe()


class TestAThetaCorrectOnly:
    def test_correct_viewer_sees_all_correct_labels(self):
        oracle = make_oracle(5, {4: 3.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        view = atheta.view(0, 10.0)
        assert view.labels() == oracle.labels_of_correct()

    def test_number_equals_correct_count(self):
        oracle = make_oracle(5, {4: 3.0, 3: 3.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        view = atheta.view(0, 0.0)
        assert all(pair.number == 3 for pair in view)

    def test_faulty_viewer_sees_empty_view(self):
        oracle = make_oracle(5, {4: 3.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        assert atheta.view(4, 1.0) is FailureDetectorView.empty()

    def test_faulty_labels_never_present(self):
        oracle = make_oracle(5, {4: 3.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        assert oracle.label_of(4) not in atheta.view(0, 100.0)

    def test_learn_delay_staggers_visibility(self):
        oracle = make_oracle(5)
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY,
                              learn_delay=10.0, rng=random.Random(1))
        early = atheta.view(0, 0.0)
        late = atheta.view(0, 20.0)
        assert len(early) < len(late)
        # A process always knows its own label immediately.
        assert oracle.label_of(0) in early
        assert late.labels() == oracle.labels_of_correct()

    def test_view_is_stable_once_converged(self):
        oracle = make_oracle(4, {3: 2.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        assert atheta.view(1, 50.0) == atheta.view(1, 500.0)

    def test_converged_view_helper(self):
        oracle = make_oracle(4, {3: 2.0})
        atheta = AThetaOracle(oracle)
        converged = atheta.converged_view()
        assert converged.labels() == oracle.labels_of_correct()

    def test_works_without_correct_majority(self):
        # 1 correct process out of 5: the prescient policy must still output
        # exactly that process's label with number 1 at correct viewers.
        oracle = make_oracle(5, {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        view = atheta.view(0, 10.0)
        assert view.labels() == frozenset({oracle.label_of(0)})
        assert view.number_for(oracle.label_of(0)) == 1


class TestAThetaAllProcesses:
    def test_initial_number_is_n(self):
        oracle = make_oracle(5, {4: 10.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES,
                              detection_delay=2.0)
        view = atheta.view(0, 0.0)
        assert len(view) == 5
        assert all(pair.number == 5 for pair in view)

    def test_crashed_label_removed_after_detection(self):
        oracle = make_oracle(5, {4: 10.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES,
                              detection_delay=2.0)
        assert oracle.label_of(4) in atheta.view(0, 11.0)
        assert oracle.label_of(4) not in atheta.view(0, 12.5)

    def test_number_shrinks_after_detection(self):
        oracle = make_oracle(5, {4: 10.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES,
                              detection_delay=2.0)
        view = atheta.view(0, 20.0)
        assert all(pair.number == 4 for pair in view)

    def test_faulty_viewer_also_sees_labels(self):
        oracle = make_oracle(5, {4: 10.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES)
        assert not atheta.view(4, 1.0).is_empty()

    def test_pair_leaves_at_the_detection_instant(self):
        # Detected from crash time + detection delay on, not after it.
        oracle = make_oracle(4, {3: 5.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES,
                              detection_delay=2.0)
        assert oracle.label_of(3) in atheta.view(0, 6.999)
        assert oracle.label_of(3) not in atheta.view(0, 7.0)
        assert oracle.label_of(0) in atheta.view(0, 100.0)

    def test_number_counts_each_detection(self):
        oracle = make_oracle(5, {3: 5.0, 4: 10.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES)
        assert [atheta.view(0, t).min_number for t in (4.0, 6.0, 20.0)] \
            == [5, 4, 3]


class TestAThetaOwnOnly:
    def test_only_own_label(self):
        oracle = make_oracle(4)
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.OWN_ONLY)
        view = atheta.view(2, 5.0)
        assert view.labels() == frozenset({oracle.label_of(2)})
        assert view.number_for(oracle.label_of(2)) == 1

    def test_crashed_viewer_keeps_its_label(self):
        oracle = make_oracle(4, {2: 1.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.OWN_ONLY,
                              detection_delay=1.0)
        assert oracle.label_of(2) in atheta.view(2, 500.0)


class TestViewWindows:
    def test_equal_views_are_one_object(self):
        oracle = make_oracle(4, {3: 2.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        assert atheta.view(0, 1.0) is atheta.view(1, 50.0) is atheta.view(0, 0.0)

    def test_a_query_outside_the_window_rebuilds_it(self):
        oracle = make_oracle(5, {4: 10.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES,
                              detection_delay=2.0)
        before, after = atheta.view(0, 11.0), atheta.view(0, 12.0)
        assert len(before) == 5 and len(after) == 4
        # Backwards into the earlier window: the earlier view, same object.
        assert atheta.view(0, 3.0) is before
        assert atheta.view(0, 13.0) is after


class TestAPStar:
    def test_crashed_pairs_removed(self):
        oracle = make_oracle(5, {4: 10.0})
        apstar = APStarOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES,
                              detection_delay=3.0)
        assert oracle.label_of(4) in apstar.view(0, 12.0)
        assert oracle.label_of(4) not in apstar.view(0, 13.5)

    def test_eventually_exactly_correct_pairs(self):
        oracle = make_oracle(5, {3: 1.0, 4: 2.0})
        apstar = APStarOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES,
                              detection_delay=1.0)
        view = apstar.view(0, 50.0)
        assert view.labels() == oracle.labels_of_correct()
        assert all(pair.number == 3 for pair in view)

    def test_correct_only_policy_matches_atheta(self):
        oracle = make_oracle(5, {4: 1.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        apstar = APStarOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        assert atheta.view(0, 30.0) == apstar.view(0, 30.0)

    def test_invalid_parameters(self):
        oracle = make_oracle(3)
        with pytest.raises(ValueError):
            APStarOracle(oracle, detection_delay=-1.0)
        with pytest.raises(ValueError):
            AThetaOracle(oracle, learn_delay=-1.0)

    def test_index_validation(self):
        oracle = make_oracle(3)
        apstar = APStarOracle(oracle)
        with pytest.raises(IndexError):
            apstar.view(7, 0.0)
        with pytest.raises(IndexError):
            apstar.view(-1, 0.0)

    def test_describe(self):
        oracle = make_oracle(3)
        assert "policy=correct_only" in APStarOracle(oracle).describe()


class TestKnowerSet:
    def test_correct_only_knowers_are_correct(self):
        oracle = make_oracle(5, {3: 1.0, 4: 2.0})
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.CORRECT_ONLY)
        for index in oracle.correct_indices():
            knowers = atheta.knower_set(oracle.label_of(index), horizon=100.0)
            assert knowers <= set(oracle.correct_indices())
            assert index in knowers

    def test_all_policy_knowers_include_everyone(self):
        oracle = make_oracle(4)
        atheta = AThetaOracle(oracle, policy=DisseminationPolicy.ALL_PROCESSES)
        knowers = atheta.knower_set(oracle.label_of(1), horizon=100.0)
        assert knowers == set(range(4))


class TestDisseminationPolicy:
    def test_from_string(self):
        assert DisseminationPolicy.from_string("correct_only") is DisseminationPolicy.CORRECT_ONLY

    def test_from_enum_is_identity(self):
        assert DisseminationPolicy.from_string(DisseminationPolicy.OWN_ONLY) is DisseminationPolicy.OWN_ONLY

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            DisseminationPolicy.from_string("psychic")

    def test_safety_flag(self):
        assert DisseminationPolicy.CORRECT_ONLY.is_safe_without_majority
        assert not DisseminationPolicy.ALL_PROCESSES.is_safe_without_majority
