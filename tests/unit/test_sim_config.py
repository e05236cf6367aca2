"""Unit tests for SimulationConfig and StopConditions."""

import pytest

from repro.simulation.config import SimulationConfig, StopConditions
from repro.simulation.simtime import NEVER


class TestStopConditions:
    def test_defaults_disabled(self):
        stop = StopConditions()
        assert not stop.any_enabled

    def test_any_enabled_with_delivery_stop(self):
        assert StopConditions(stop_when_all_correct_delivered=True).any_enabled

    def test_any_enabled_with_quiescence_stop(self):
        assert StopConditions(stop_when_quiescent=True).any_enabled

    def test_rejects_negative_grace(self):
        with pytest.raises(ValueError):
            StopConditions(drain_grace_period=-1.0)

    def test_zero_grace_allowed(self):
        assert StopConditions(drain_grace_period=0.0).drain_grace_period == 0.0


class TestSimulationConfig:
    def test_minimal_construction(self):
        config = SimulationConfig(n_processes=3)
        assert config.n_processes == 3
        assert config.tick_interval > 0

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_processes=0)

    def test_rejects_negative_processes(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_processes=-1)

    def test_rejects_zero_tick(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_processes=3, tick_interval=0.0)

    def test_rejects_zero_max_time(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_processes=3, max_time=0.0)

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            SimulationConfig(n_processes=3, seed=1.5)

    def test_with_seed_copies(self):
        config = SimulationConfig(n_processes=3, seed=1)
        other = config.with_seed(9)
        assert other.seed == 9
        assert config.seed == 1
        assert other.n_processes == 3

    def test_rejects_negative_max_time(self):
        with pytest.raises(ValueError, match="max_time"):
            SimulationConfig(n_processes=3, max_time=-5.0)

    def test_never_horizon_allowed(self):
        assert SimulationConfig(n_processes=3, max_time=NEVER).max_time == NEVER

    def test_process_indices(self):
        assert list(SimulationConfig(n_processes=4).process_indices) == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4)]
    )
    def test_majority_threshold(self, n, expected):
        assert SimulationConfig(n_processes=n).majority_threshold() == expected

    def test_describe_mentions_n_and_seed(self):
        text = SimulationConfig(n_processes=6, seed=3).describe()
        assert "n=6" in text
        assert "seed=3" in text

    def test_metadata_preserved(self):
        config = SimulationConfig(n_processes=3, metadata={"experiment": "E1"})
        assert config.metadata["experiment"] == "E1"
