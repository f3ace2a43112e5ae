"""Synthetic image generation and minimal PGM/PPM file I/O.

Images are H x W x C float arrays with values in [0, 255]. Synthesis is
deterministic given the data seed, which keeps every downstream run
replayable without shipping binary fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import stream

DATASET_KINDS = ("gradient", "checkerboard", "blob")


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


def _unit_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    return np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")


def _index_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    return np.meshgrid(np.arange(h), np.arange(w), indexing="ij")


def _pixel_grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    return np.meshgrid(np.arange(h, dtype=np.float64),
                       np.arange(w, dtype=np.float64), indexing="ij")


def _gradient(grid, c: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = grid
    img = np.empty((*yy.shape, c))
    for ch in range(c):
        theta = rng.uniform(0, 2 * np.pi)
        offset = rng.uniform(0.0, 1.0)
        ramp = np.cos(theta) * xx + np.sin(theta) * yy + offset
        ramp -= ramp.min()
        span = ramp.max()
        img[:, :, ch] = 255.0 * ramp / span if span > 0 else 0.0
    return img


def _checkerboard(grid, c: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = grid
    h, w = yy.shape
    cell = int(rng.integers(1, max(2, min(h, w) // 2 + 1)))
    phase = int(rng.integers(0, 2))
    lo, hi = sorted(rng.uniform(0, 255, size=2))
    board = ((yy // cell + xx // cell + phase) % 2).astype(np.float64)
    img = lo + (hi - lo) * board
    return np.repeat(img[:, :, None], c, axis=2)


def _blob(grid, c: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = grid
    h, w = yy.shape
    img = np.zeros((h, w, c))
    n_blobs = int(rng.integers(1, 4))
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        width = rng.uniform(max(h, w) / 8.0, max(h, w) / 2.0)
        amp = rng.uniform(64, 255)
        bump = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        for ch in range(c):
            img[:, :, ch] += bump * rng.uniform(0.5, 1.0)
    return np.clip(img, 0.0, 255.0)


# kind -> (grid builder, image generator); the grid is built once per call
_GENERATORS = {"gradient": (_unit_grid, _gradient),
               "checkerboard": (_index_grid, _checkerboard),
               "blob": (_pixel_grid, _blob)}


def synthesize_dataset(spec: DatasetSpec, data_seed: int) -> list[np.ndarray]:
    """Deterministic list of ``spec.count`` images from the data seed."""
    build_grid, make = _GENERATORS[spec.kind]
    grid = build_grid(spec.height, spec.width)
    return [make(grid, spec.channels, stream(data_seed, i))
            for i in range(spec.count)]


# -- PGM / PPM ---------------------------------------------------------------


def read_image(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file into an HxWxC float array."""
    raw = Path(path).read_bytes()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"unsupported image format {magic!r} (need P5/P6)")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after the header
    channels = 1 if magic == b"P5" else 3
    pixels = np.frombuffer(raw, dtype=np.uint8, count=h * w * channels, offset=pos)
    return pixels.reshape(h, w, channels).astype(np.float64)


def write_image(path: str | Path, image: np.ndarray) -> None:
    """Write an HxWxC array (C=1 as PGM, C=3 as PPM), rounding to 8 bits."""
    img = np.asarray(image)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    if c not in (1, 3):
        raise ValueError(f"can only write 1- or 3-channel images, got C={c}")
    magic = b"P5" if c == 1 else b"P6"
    data = np.clip(np.rint(img), 0, 255).astype(np.uint8).tobytes()
    Path(path).write_bytes(magic + f"\n{w} {h}\n255\n".encode() + data)
