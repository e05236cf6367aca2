"""``_uniform_draws`` against ``random.Random.random()``.

The vectorized engine draws its channels' uniforms a block at a time from
``getrandbits`` and rebuilds ``random()``'s doubles from the raw words.  That
is exact only as long as CPython keeps ``getrandbits``'s word order and
``random()``'s 53-bit recipe, so the equality is a property checked on every
interpreter of the CI matrix.
"""

import random
import struct

from hypothesis import given, settings, strategies as st

from repro.simulation.vectorized import _uniform_draws

streams = st.tuples(st.integers(0, 2 ** 64), st.integers(0, 700),
                    st.sampled_from([0, 1, 2, 7, 255, 256, 1000]))


@given(st.lists(streams, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_uniform_draws_are_sequential_random_calls(specs):
    """Any seed, any pre-advance, counts including 0 and 1, several
    generators a call: values byte-equal to sequential ``random()`` calls,
    generator states equal afterwards."""
    bulk, plain = [], []
    for seed, advance, _count in specs:
        for generators in (bulk, plain):
            rng = random.Random(seed)
            for _ in range(advance):
                rng.random()
            generators.append(rng)
    counts = [count for _seed, _advance, count in specs]
    draws = _uniform_draws(bulk, counts)
    want = [rng.random() for rng, count in zip(plain, counts)
            for _ in range(count)]
    assert draws.astype("<f8").tobytes() == \
        struct.pack(f"<{len(want)}d", *want)
    assert [rng.getstate() for rng in bulk] == \
        [rng.getstate() for rng in plain]
