"""Unit tests for the named random substreams."""

import pytest

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
        c = source.for_channel(0, 1)
        assert p is not c

    def test_for_component_with_index(self):
        source = RandomSource(1)
        assert source.for_component("loss", 3) is source.stream("loss:3")

    def test_rejects_bool_master_seed(self):
        with pytest.raises(TypeError):
            RandomSource(True)

    def test_master_seed_property(self):
        assert RandomSource(17).master_seed == 17
