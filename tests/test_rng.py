import numpy as np
import pytest

from securejscc.rng import (bounded, halves, integer_rows, message_streams, raw_words,
                            spawn_seed, stream, streams)


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


@pytest.mark.parametrize("indices", [
    [3, 0, 2**64 - 1, 7], [0, 2**64 - 1], range(2, 9), [],
    np.array([5, 0, 2**63 - 1], dtype=np.int64),
    np.array([2**64 - 1, 1, 2**63], dtype=np.uint64), np.array([4], dtype=np.int32),
], ids=["list", "list_mixed_width", "range", "empty", "int64", "uint64", "int32"])
def test_message_streams_key_what_streams_keys(indices):
    for seed in (-3, 11, 2**64 + 11):
        keyed = message_streams(seed, indices)
        assert keyed.keys == streams(seed, list(indices)).keys
        assert all(type(word) is int for key in keyed.keys for word in key)


@pytest.mark.parametrize("indices, bad, fault", [
    ([3, 0, 3], 3, "repeats"), ([2**64 - 1, 2**64 - 1], 2**64 - 1, "repeats"),
    (np.array([2, 7, 2], dtype=np.uint64), 2, "repeats"),
    ([-1], -1, "is outside"), ([1, -1, 1], -1, "is outside"),
    (np.array([4, -1]), -1, "is outside"), ([2**64], 2**64, "is outside"),
    ([0, 2**64, 0], 2**64, "is outside"),
], ids=["repeat", "repeat_top", "repeat_uint64", "negative", "negative_first",
        "negative_int64", "2**64", "2**64_first"])
def test_message_streams_name_the_first_bad_index(indices, bad, fault):
    with pytest.raises(ValueError, match=rf"^message index {bad} {fault}\b.*: every "
                       r"message needs its own error triple and channel noise$"):
        message_streams(5, indices)


# 3 * 2**30 rejects a quarter of all 32-bit draws, so most of its rows take
# the redraw pass; 2**32 + 1 takes numpy's 64-bit map
BOUNDS = [2, 3, 251, 257, 4093, 4096, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32,
          2**32 + 1]
SHAPES = [(1,), (7,), (3, 5), (4, 4), (3, 3, 3)]


@pytest.mark.parametrize("p", BOUNDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_integer_rows_equal_generator_integers(p, shape):
    keys = EDGE_KEYS + [(2026, t) for t in range(20)]
    rows = integer_rows(streams(*zip(*keys)), p, shape)
    assert rows.shape == (len(keys), *shape) and rows.dtype == np.int64
    for row, key in zip(rows, keys):
        expected = stream(*key).integers(0, p, size=shape, dtype=np.int64)
        assert np.array_equal(row, expected), key


def test_bounded_rejects_where_numpy_draws_again():
    p = 3 * 2**30
    u = np.array([0, 2**30 - 1, 2**30, 2**32 - 1, 1, 2, 3, 4], dtype=np.uint32)
    values, rejected = bounded(u, p)
    # u * p mod 2**32 is (3u mod 4) * 2**30, below 2**32 mod p = 2**30
    # exactly when u is a multiple of 4
    assert rejected.tolist() == [x % 4 == 0 for x in u.tolist()]
    assert values.tolist() == [(int(x) * p) >> 32 for x in u]
    assert not bounded(u, 2**32)[1].any()
    assert bounded(u, 2**32)[0].tolist() == u.tolist()


@pytest.mark.parametrize("p, rows, built", [
    (257, 30, 1),          # no draw rejected: raw words only
    (3 * 2**30, 30, 2),    # rejected rows: a second pass over those rows
    (2**32 + 1, 30, 1),    # the 64-bit map: the generator, one pass
    (3 * 2**30, 0, 0),     # no rows: no stream started
])
def test_integer_rows_builds_a_redraw_pass_only_when_needed(monkeypatch, p, rows,
                                                            built):
    philox, real = [], np.random.Philox

    def counting(*args, **kwargs):
        philox.append(real(*args, **kwargs))
        return philox[-1]

    monkeypatch.setattr(np.random, "Philox", counting)
    integer_rows(streams(5, range(rows)), p, (8,))
    assert len(philox) == built


def test_raw_words_and_halves_follow_the_generator():
    keys = [(7, 0), (7, 1), (-3, 2)]
    words = raw_words(streams(*zip(*keys)), 3)
    assert words.dtype == np.uint64 and words.shape == (3, 3)
    for row, pairs, key in zip(words, halves(words), keys):
        assert np.array_equal(row, stream(*key).bit_generator.random_raw(3))
        # each word's low half, then its high half: the 32-bit draws
        assert pairs.tolist() == stream(*key).integers(0, 2**32, size=6).tolist()
