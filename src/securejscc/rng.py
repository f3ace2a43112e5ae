"""Seedable counter-mode random streams.

Every random draw in the package comes from a Philox stream keyed by a
``(seed, index)`` pair, so any component can be replayed in isolation and
independent messages get provably disjoint streams. Philox is counter
based, so equal keys give bitwise-identical sequences on every platform.
"""

from __future__ import annotations

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


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the stream for ``(seed, index)``.

    The 128-bit Philox key is ``seed * 2**64 + index``: the high word
    selects the seed domain, the low word the substream. Distinct pairs
    never collide. Every call returns a new, independent generator.
    """
    words = (int(index) & _MASK64, int(seed) & _MASK64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(words)))


def spawn_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed from an existing stream."""
    return int(rng.integers(0, 1 << 63))
