"""Unit tests for the named random substreams, and for which of them a run
seeds: only those some model draws from."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.experiments.parity import parity_cases
from repro.experiments.runner import build_engine, default_scenario
from repro.network.loss import LossSpec
from repro.simulation.rng import RandomSource, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "alpha") == derive_seed(42, "alpha")

    def test_varies_with_name(self):
        assert derive_seed(42, "alpha") != derive_seed(42, "beta")

    def test_varies_with_master_seed(self):
        assert derive_seed(1, "alpha") != derive_seed(2, "alpha")

    def test_rejects_non_int_master(self):
        with pytest.raises(TypeError):
            derive_seed("42", "alpha")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(7, "x") < 2 ** 64


class TestRandomSource:
    def test_same_master_seed_same_streams(self):
        a = RandomSource(5).stream("tags")
        b = RandomSource(5).stream("tags")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        source = RandomSource(5)
        a = [source.stream("a").random() for _ in range(3)]
        b = [source.stream("b").random() for _ in range(3)]
        assert a != b

    def test_draws_on_one_stream_leave_another_untouched(self):
        busy, quiet = RandomSource(5), RandomSource(5)
        for _ in range(100):
            busy.stream("loss").random()
        assert busy.stream("tags").random() == quiet.stream("tags").random()

    def test_stream_is_cached(self):
        source = RandomSource(0)
        assert source.stream("x") is source.stream("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).stream("")

    def test_for_process_and_channel_names_disjoint(self):
        source = RandomSource(1)
        p = source.for_process(0)
        c = source.for_component("loss", 0)
        assert p is not c

    def test_for_component_with_index(self):
        source = RandomSource(1)
        assert source.for_component("loss", 3) is source.stream("loss:3")

    def test_rejects_bool_master_seed(self):
        with pytest.raises(TypeError):
            RandomSource(True)

    def test_master_seed_property(self):
        assert RandomSource(17).master_seed == 17


@given(st.integers(-2 ** 80, 2 ** 80), st.text(min_size=1))
def test_stream_is_a_stock_random_seeded_from_derive_seed(master_seed, name):
    stream = RandomSource(master_seed).stream(name)
    assert type(stream) is random.Random
    assert stream.getstate() == random.Random(derive_seed(master_seed, name)).getstate()


@pytest.fixture
def seeded(monkeypatch):
    """``(source, name, stream)`` of every stream seeded while the test runs."""
    record: list[tuple[RandomSource, str, random.Random]] = []
    stream = RandomSource.stream

    def recording(source, name):
        fresh = name not in source._streams
        made = stream(source, name)
        if fresh:
            record.append((source, name, made))
        return made

    monkeypatch.setattr(RandomSource, "stream", recording)
    return record


#: Streams only a model or a process draws from: each must have been drawn
#: by the run's end.
MODEL_STREAMS = ("loss", "delay", "workload", "atheta-learn", "apstar-learn",
                 "process")


@pytest.mark.parametrize("case", parity_cases(), ids=lambda case: case.name)
def test_no_model_stream_is_seeded_and_never_drawn(case, seeded):
    build_engine(case.with_(engine="reference")).run()
    undrawn = [
        name for source, name, stream in seeded
        if name.split(":")[0] in MODEL_STREAMS
        and stream.getstate()
        == random.Random(derive_seed(source.master_seed, name)).getstate()
    ]
    assert undrawn == []


def kinds(seeded) -> Counter:
    return Counter(name.split(":")[0] for _source, name, _stream in seeded)


def test_streams_of_a_grid_style_cell(seeded):
    """A campaign grid cell: no loss, the ``single`` preset, no staggered
    learning: processes, delays and labels only."""
    build_engine(default_scenario("algorithm2", seed=3, loss=LossSpec.none(),
                                  crashes={0: 1.0, 1: 3.0})).run()
    assert kinds(seeded) == {"process": 5, "delay": 25, "labels": 1}


def test_streams_of_a_leased_style_cell(seeded):
    """A leased campaign cell: n=3 under Bernoulli loss."""
    build_engine(default_scenario("algorithm2", seed=3, n_processes=3,
                                  loss=LossSpec.bernoulli(0.1))).run()
    assert kinds(seeded) == {"process": 3, "loss": 9, "delay": 9, "labels": 1}
