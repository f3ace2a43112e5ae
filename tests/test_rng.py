import numpy as np
import pytest

from securejscc.rng import spawn_seed, stream


def test_same_key_same_sequence():
    a = stream(123, 4).standard_normal(64)
    b = stream(123, 4).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_indices_distinct_sequences():
    a = stream(123, 0).standard_normal(64)
    b = stream(123, 1).standard_normal(64)
    assert not np.array_equal(a, b)


def test_distinct_seeds_distinct_sequences():
    a = stream(1).standard_normal(64)
    b = stream(2).standard_normal(64)
    assert not np.array_equal(a, b)


def test_spawn_seed_range():
    rng = stream(7)
    seeds = [spawn_seed(rng) for _ in range(100)]
    assert all(0 <= s < 2 ** 63 for s in seeds)
    assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize("seed, index", [(0, 0), (2 ** 64 - 1, 2 ** 64 - 1),
                                         (-3, 5)])
def test_stream_is_philox_keyed_by_seed_and_index(seed, index):
    key = (seed % 2 ** 64) * 2 ** 64 + index
    reference = np.random.Generator(np.random.Philox(key=key))
    rng = stream(seed, index)
    assert np.array_equal(rng.standard_normal(300), reference.standard_normal(300))
    assert np.array_equal(rng.integers(0, 7, 50), reference.integers(0, 7, 50))


def test_live_streams_with_one_key_are_independent():
    a, b = stream(9, 2), stream(9, 2)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.standard_normal(10)
    # drawing from one leaves the other at the start of the stream
    assert np.array_equal(b.standard_normal(10), first)
    assert not np.array_equal(a.standard_normal(10), first)
