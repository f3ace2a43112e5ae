"""Seedable counter-mode random streams.

Every random draw in the package comes from a Philox stream keyed by a
``(seed, index)`` pair, so any component can be replayed in isolation and
independent messages get provably disjoint streams. Philox is counter
based, so equal keys give bitwise-identical sequences on every platform,
and a new key needs no new generator: :class:`streams` walks many keys with
one. A draw that is a fixed function of a stream's first raw words is
computed from :func:`raw_words` as numpy's Generator computes it.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """Hands Philox its two 64-bit key words (low word first) as its seed.

    ``Philox(key=...)`` builds an OS-entropy ``SeedSequence`` and then
    discards it; seeding with the key words themselves skips that and sets
    the same key, counter and buffer.
    """

    __slots__ = ("words",)

    def __init__(self, words: tuple[int, int]):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seed_word(seed: int) -> int:
    """The key word of ``seed``'s streams: seeds equal mod 2**64 share them."""
    return int(seed) & _MASK64


def check_distinct(seeds: dict[str, int], what: str = "seeds") -> None:
    """The seed rule: a ValueError names the first two ``seeds`` equal mod 2**64."""
    named: dict[int, str] = {}
    for name, seed in seeds.items():
        if (other := named.setdefault(seed_word(seed), name)) != name:
            raise ValueError(f"{what} '{other}' and '{name}' are equal mod "
                             f"2**64, so they would draw the same random streams")


def _key_words(seed: int, index: int) -> tuple[int, int]:
    """The two 64-bit words, low first, of the Philox key of ``(seed, index)``:
    ``seed * 2**64 + index``, each reduced mod 2**64."""
    return int(index) & _MASK64, seed_word(seed)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the stream for ``(seed, index)``.

    The 128-bit Philox key is ``seed * 2**64 + index``: the high word
    selects the seed domain, the low word the substream. Pairs distinct
    mod 2**64 never collide. Every call returns a new, independent generator.
    """
    return np.random.Generator(np.random.Philox(_PhiloxKey(_key_words(seed, index))))


class streams:
    """The streams of the pairs ``(seeds[i], indices[i])``, in order.

    ``seeds`` and ``indices`` are equal-length sequences, or either one an
    int that every pair shares. A Philox stream is nothing but its key, so
    each pass builds one Philox and one Generator, and for each pair sets
    the key with a fresh counter and an empty buffer through Philox's public
    ``state`` setter: it yields the generator at the start of that pair's
    stream, drawing what ``stream(seed, index)`` draws. A yielded generator
    is valid only until the next one is yielded; iterating again restarts
    every stream.
    """

    __slots__ = ("keys",)

    def __init__(self, seeds, indices):
        if isinstance(seeds, (int, np.integer)):
            seeds = [seeds] * len(indices)
        if isinstance(indices, (int, np.integer)):
            indices = [indices] * len(seeds)
        if len(seeds) != len(indices):
            raise ValueError(f"need one index per seed: {len(seeds)} seeds, "
                             f"{len(indices)} indices")
        self.keys = [_key_words(s, i) for s, i in zip(seeds, indices)]

    def __len__(self) -> int:
        return len(self.keys)

    def subset(self, rows) -> streams:
        """The streams of the pairs at positions ``rows``, in that order."""
        keyed = object.__new__(streams)
        keyed.keys = [self.keys[r] for r in rows]
        return keyed

    def __iter__(self):
        bit_generator = np.random.Philox(_PhiloxKey((0, 0)))
        rng = np.random.Generator(bit_generator)
        fresh = {"counter": [0, 0, 0, 0], "key": None}
        state = {"bit_generator": "Philox", "state": fresh,
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for words in self.keys:
            fresh["key"] = words
            bit_generator.state = state
            yield rng


def message_streams(seed: int, message_indices) -> streams:
    """The streams of ``(seed, message_indices[i])``. An index keys a
    message's error triple and channel noise, so one that repeats raises
    ``ValueError``, as does one outside ``[0, 2**64)``, whose key would wrap."""
    indices = np.asarray(message_indices)
    if indices.dtype.kind not in "iu":  # no ints, or ints past one 64-bit type
        indices = np.array([int(i) for i in message_indices], dtype=object)
    values = indices.tolist()
    if len(set(values)) < len(values) or (indices < 0).any() or (indices >= 1 << 64).any():
        seen = set()  # name the first index at fault
        for i in values:
            if i in seen or not 0 <= i < 1 << 64:
                fault = "repeats" if i in seen else "is outside [0, 2**64)"
                raise ValueError(f"message index {i} {fault}: every message needs "
                                 f"its own error triple and channel noise")
            seen.add(i)
    keyed = object.__new__(streams)
    keyed.keys = list(zip(values, repeat(seed_word(seed))))
    return keyed


def normal_rows(rngs, shape) -> np.ndarray:
    """One ``shape`` block of standard normal draws per stream, stacked.

    Each stream is drawn once, filling its block in C order; the draws are
    the ones ``rng.standard_normal(shape)`` makes.
    """
    x = np.empty((len(rngs), *shape))
    for row, rng in zip(x, rngs):
        rng.standard_normal(out=row)
    return x


def raw_words(rngs, n: int) -> np.ndarray:
    """The first ``n`` raw 64-bit words of each stream, one uint64 row per
    stream, in one pass; an empty ``rngs`` starts no stream."""
    words = np.empty((len(rngs), n), dtype=np.uint64)
    for row, rng in zip(words, rngs):
        row[...] = rng.bit_generator.random_raw(n)
    return words


def halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit draws of C-contiguous ``words``, (..., n) -> (..., 2n)
    uint32: each word's low half, then its high half, as Philox hands them out."""
    return words.astype("<u8", copy=False).view("<u4")


def bounded(u: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's map of 32-bit draws ``u`` onto ``[0, p)``, ``p <= 2**32``: the
    int64 values, and where numpy rejects a draw and maps the next instead.

    It is Lemire's multiply-shift: ``u`` gives ``(u * p) >> 32`` unless
    ``u * p mod 2**32 < 2**32 mod p``, a threshold 0 when p is a power of two.
    """
    rejected = u * np.uint32(p & 0xFFFFFFFF) < (1 << 32) % p
    values = u * np.uint64(p)
    values >>= np.uint64(32)
    return values.view(np.int64), rejected


def integer_rows(keyed: streams, p: int, shape) -> np.ndarray:
    """One ``shape`` block per stream of ``keyed`` of the values
    ``rng.integers(0, p, size=shape, dtype=np.int64)`` draws, stacked.

    For ``p <= 2**32`` a row is :func:`bounded` of its stream's raw words;
    the generator draws again the rows holding a rejected draw, on a pass
    over those rows only, and every row of a larger p (numpy's 64-bit map).
    """
    size = math.prod(shape)
    redraw = range(len(keyed))
    if p <= 1 << 32:
        u = halves(raw_words(keyed, (size + 1) // 2))[:, :size]
        rows, rejected = bounded(u, p)
        redraw = np.flatnonzero(rejected.any(axis=1))
    else:
        rows = np.empty((len(keyed), size), dtype=np.int64)
    for r, rng in zip(redraw, keyed.subset(redraw)):
        rows[r] = rng.integers(0, p, size=size, dtype=np.int64)
    return rows.reshape(len(keyed), *shape)


def spawn_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed from an existing stream."""
    return int(rng.integers(0, 1 << 63))
