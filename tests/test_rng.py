import numpy as np
import pytest

from securejscc.rng import spawn_seed, stream, streams


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


# (seed, index) keys at the edges of the layout; the last two seeds are
# equal mod 2**64
EDGE_KEYS = [(-3, 0), (2 ** 64 - 1, 4), (11, 2 ** 64 - 1), (5, 1), (5 + 2 ** 64, 2)]
DRAWS = [
    lambda rng: rng.standard_normal(out=np.empty(7)),
    lambda rng: rng.integers(0, 4093, size=5, dtype=np.int64),
    lambda rng: rng.random(6),
    lambda rng: rng.uniform(0, 255, size=3),
    lambda rng: rng.bit_generator.random_raw(5),
]


@pytest.mark.parametrize("draw", range(len(DRAWS)))
def test_streams_draw_what_stream_draws(draw):
    seeds, indices = zip(*EDGE_KEYS)
    got = [DRAWS[draw](rng) for rng in streams(seeds, indices)]
    for value, key in zip(got, EDGE_KEYS):
        assert np.array_equal(value, DRAWS[draw](stream(*key))), key


def test_streams_start_fresh_after_a_buffered_half():
    # an odd count of bounded int64 draws leaves half a 64-bit word buffered
    keys = [(7, 0), (7, 1), (8, 0)]
    for rng, key in zip(streams(*zip(*keys)), keys):
        reference = stream(*key)
        assert np.array_equal(rng.integers(0, 3, size=3, dtype=np.int64),
                              reference.integers(0, 3, size=3, dtype=np.int64))
        assert rng.bit_generator.state["has_uint32"] == 1
        assert np.array_equal(rng.standard_normal(4), reference.standard_normal(4))


def test_streams_broadcast_a_shared_seed_or_index_and_restart():
    keyed = streams(9, range(3))
    assert len(keyed) == 3
    first = [rng.random() for rng in keyed]
    # iterating again restarts every stream
    assert [rng.random() for rng in keyed] == first
    assert first == [stream(9, i).random() for i in range(3)]
    assert [rng.random() for rng in streams([4, 5], 2)] == [
        stream(4, 2).random(), stream(5, 2).random()]
    with pytest.raises(ValueError, match="one index per seed"):
        streams([1, 2], [0])
