"""Unit tests for the crash schedule (failure patterns)."""

import pytest

from repro.simulation.faults import CrashSchedule
from repro.simulation.simtime import NEVER


class TestConstruction:
    def test_none_schedule_all_correct(self):
        schedule = CrashSchedule.none(4)
        assert schedule.n_faulty == 0
        assert schedule.correct_indices() == (0, 1, 2, 3)

    def test_crash_at(self):
        schedule = CrashSchedule.crash_at(4, {1: 5.0, 2: 10.0})
        assert schedule.crash_time(1) == 5.0
        assert schedule.crash_time(2) == 10.0

    def test_crash_initially(self):
        schedule = CrashSchedule.crash_initially(4, [0, 3])
        assert schedule.crash_time(0) == 0.0
        assert schedule.crash_time(3) == 0.0
        assert schedule.is_correct(1)

    def test_rejects_all_crashed(self):
        with pytest.raises(ValueError):
            CrashSchedule.crash_at(2, {0: 1.0, 1: 2.0})

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            CrashSchedule.crash_at(3, {5: 1.0})

    def test_rejects_negative_crash_time(self):
        with pytest.raises(ValueError):
            CrashSchedule.crash_at(3, {0: -1.0})

    def test_never_crash_time_treated_as_correct(self):
        schedule = CrashSchedule.crash_at(3, {0: NEVER})
        assert schedule.is_correct(0)
        assert schedule.n_faulty == 0

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            CrashSchedule.none(0)



class TestQueries:
    @pytest.fixture
    def schedule(self):
        return CrashSchedule.crash_at(5, {1: 5.0, 3: 10.0})

    def test_is_correct(self, schedule):
        assert schedule.is_correct(0)
        assert not schedule.is_correct(1)

    def test_is_faulty(self, schedule):
        assert schedule.is_faulty(3)
        assert not schedule.is_faulty(4)

    def test_crash_time_of_correct_is_never(self, schedule):
        assert schedule.crash_time(0) == NEVER

    def test_is_crashed_at_before_and_after(self, schedule):
        assert not schedule.is_crashed_at(1, 4.9)
        assert schedule.is_crashed_at(1, 5.0)
        assert schedule.is_crashed_at(1, 100.0)

    def test_correct_and_faulty_partition(self, schedule):
        assert set(schedule.correct_indices()) | set(schedule.faulty_indices()) == set(range(5))
        assert not set(schedule.correct_indices()) & set(schedule.faulty_indices())

    def test_alive_indices_at(self, schedule):
        assert schedule.alive_indices_at(0.0) == (0, 1, 2, 3, 4)
        assert schedule.alive_indices_at(7.0) == (0, 2, 3, 4)
        assert schedule.alive_indices_at(20.0) == (0, 2, 4)

    def test_crashed_indices_at(self, schedule):
        assert schedule.crashed_indices_at(7.0) == (1,)

    def test_counts(self, schedule):
        assert schedule.n_faulty == 2
        assert schedule.n_correct == 3

    def test_has_correct_majority(self, schedule):
        assert schedule.has_correct_majority()

    def test_no_majority(self):
        schedule = CrashSchedule.crash_at(4, {0: 1.0, 1: 1.0})
        assert not schedule.has_correct_majority()

    def test_iteration_sorted(self, schedule):
        assert list(schedule) == [(1, 5.0), (3, 10.0)]

    def test_index_out_of_range_raises(self, schedule):
        with pytest.raises(IndexError):
            schedule.crash_time(9)

    def test_describe_no_crashes(self):
        assert CrashSchedule.none(3).describe() == "no crashes"

    def test_describe_with_crashes(self, schedule):
        text = schedule.describe()
        assert "p1@5" in text
        assert "p3@10" in text
