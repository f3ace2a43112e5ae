"""Synthetic image generation and a minimal PGM/PPM reader.

Images are H x W x C float arrays with values in [0, 255]. Synthesis is
deterministic given the data seed, which keeps every downstream run
replayable without shipping binary fixtures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import bounded, halves, raw_words, streams

DATASET_KINDS = ("blob",)


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    count: int
    height: int
    width: int
    channels: int = 1

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if min(self.height, self.width, self.channels) < 1:
            raise ValueError(f"image dimensions must be positive, got "
                             f"{self.height}x{self.width}x{self.channels}")


def _blob_draws(c: int, keyed) -> tuple[np.ndarray, np.ndarray]:
    """The blob counts and the concatenated parameter rows of the streams:
    the values ``rng.integers(1, 4)`` and then ``rng.random((count, 4 + c))``
    draw. The count is the bounded draw of the first raw word's low half, a
    parameter ``(w >> 11) * 2**-53`` of a later word; the generator draws
    a stream whose count draw is rejected."""
    words = raw_words(keyed, 1 + 3 * (4 + c))
    counts, rejected = bounded(halves(words)[:, 0], 3)
    counts += 1
    u = ((words[:, 1:] >> np.uint64(11)) * 2.0 ** -53).reshape(len(keyed), 3, 4 + c)
    redraw = np.flatnonzero(rejected)
    for r, rng in zip(redraw, keyed.subset(redraw)):
        counts[r] = rng.integers(1, 4)
        u[r, :counts[r]] = rng.random((counts[r], 4 + c))
    return counts, u[np.arange(3) < counts[:, None]]


def _blob(grid, c: int, rngs) -> np.ndarray:
    """Each stream draws its blob count, then per blob the centre, width,
    amplitude and gains, in one pass over the streams; all bumps are made at
    once, summed in drawing order."""
    yy, xx = grid
    h, w = yy.shape
    counts, u = _blob_draws(c, rngs)
    low = np.array([0.0, 0.0, max(h, w) / 8.0, 64.0] + [0.5] * c)
    v = low + (np.array([h, w, max(h, w) / 2.0, 255.0] + [1.0] * c) - low) * u
    cy, cx, amp = (v[:, i, None, None] for i in (0, 1, 3))
    # Python's float power, as each blob's scalar width had it
    den = np.array([2 * width ** 2 for width in v[:, 2].tolist()])[:, None, None]
    bump = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / den)
    layers = bump[..., None] * v[:, None, None, 4:]
    first = np.cumsum(counts) - counts
    img = layers[first]
    for j in range(1, counts.max()):
        img[counts > j] += layers[first[counts > j] + j]
    return np.clip(img, 0.0, 255.0)


# image pixels generated as one stack: bounds the blob bumps' temporaries
SYNTH_CHUNK_PIXELS = 1 << 12


def synthesize_dataset(spec: DatasetSpec, data_seed: int) -> list[np.ndarray]:
    """Deterministic list of ``spec.count`` images from the data seed; image
    i comes from the stream ``(data_seed, i)`` however many are made together."""
    grid = np.meshgrid(np.arange(spec.height, dtype=np.float64),
                       np.arange(spec.width, dtype=np.float64), indexing="ij")
    step = max(1, SYNTH_CHUNK_PIXELS // (spec.height * spec.width))
    return [image for start in range(0, spec.count, step) for image in _blob(
        grid, spec.channels,
        streams(data_seed, range(start, min(start + step, spec.count))))]


# -- PGM / PPM ---------------------------------------------------------------


# magic number, then width, height and maxval, each after whitespace or
# comment lines, then the single whitespace byte that ends the header
PNM_HEADER = re.compile(rb"(P[56])" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def read_image(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file into an HxWxC float array."""
    raw = Path(path).read_bytes()
    header = PNM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM/PPM file (P5 or P6 header "
                         f"with width, height and maxval)")
    w, h, maxval = (int(n) for n in header.groups()[1:])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    if min(w, h) < 1:
        raise ValueError(f"{path}: image dimensions must be positive, got {w}x{h}")
    count = h * w * (1 if header[1] == b"P5" else 3)
    if count > len(raw) - header.end():
        raise ValueError(f"{path}: a {w}x{h} image needs {count} pixel bytes, "
                         f"the file has {len(raw) - header.end()}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header.end())
    return pixels.reshape(h, w, -1).astype(np.float64)
