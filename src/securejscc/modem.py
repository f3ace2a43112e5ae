"""QAM constellation, AWGN channel and likelihood-based soft demodulation.

Integer symbols in ``[0, p)`` map one-to-one onto a power-normalized square
QAM grid. The receiver never hard-slices: it evaluates the complex
Gaussian likelihood of every constellation point and reconstructs a
real-valued symbol estimate as a softmax-weighted sum of the integer
values, which downstream stages treat as a noisy ciphertext.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream

MAX_CONSTELLATION = 4096
SIGMA_L_DEFAULT = 5.0
# symbols x points of one demodulator block: 2 MB of float64, cache sized
BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class Constellation:
    points: np.ndarray  # complex, length p, ordered by integer value
    avg_power: float


def noise_variance(snr_db: float, avg_power: float) -> float:
    """Complex AWGN variance per symbol at ``snr_db``; infinite SNR gives 0."""
    return 0.0 if math.isinf(snr_db) else avg_power * 10.0 ** (-snr_db / 10.0)


def build_constellation(p: int, target_power: float = 1.0) -> Constellation:
    """Square QAM with the last grid points dropped and power normalized.

    Uses the smallest even grid side m with m*m >= p (m=64 for the 4093
    default, a 4096-QAM with its 3 final row-major points removed; m=2 for
    p=4 gives the familiar four-corner layout). Levels are the odd integers
    ``+-1 .. +-(m-1)`` per axis, points ordered row-major, then rescaled so
    the mean power over the retained p points equals ``target_power``.
    """
    if p < 1:
        raise ValueError(f"constellation order must be >= 1, got {p}")
    if p > MAX_CONSTELLATION:
        raise ValueError(f"constellation order {p} exceeds {MAX_CONSTELLATION}")
    if not target_power > 0:
        raise ValueError(f"target_power must be positive, got {target_power}")
    m = 2
    while m * m < p:
        m += 2
    levels = 2 * np.arange(m) - (m - 1)  # -(m-1), ..., -1, 1, ..., m-1
    re = np.tile(levels, m)
    im = np.repeat(levels, m)
    grid = (re + 1j * im).astype(np.complex128)
    points = grid[:p]
    scale = math.sqrt(target_power / float(np.mean(np.abs(points) ** 2)))
    return Constellation(points=points * scale, avg_power=float(target_power))


def modulate(values: np.ndarray, cons: Constellation) -> np.ndarray:
    """Look up the constellation point for each integer value."""
    v = np.asarray(values, dtype=np.int64)
    if np.any(v < 0) or np.any(v >= len(cons.points)):
        raise ValueError(f"symbol values must lie in [0, {len(cons.points)})")
    return cons.points[v]


def awgn(y: np.ndarray, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """y + n with n complex Gaussian, total variance sigma2 per symbol."""
    y = np.asarray(y, dtype=np.complex128)
    if not np.all(np.isfinite(y.real)) or not np.all(np.isfinite(y.imag)):
        raise ValueError("channel input must be finite")
    if sigma2 == 0.0:
        return y.copy()
    s = math.sqrt(sigma2 / 2.0)
    noise = s * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return y + noise


def _point_distances_sq(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    dre = y.real[:, None] - points.real[None, :]
    dim = y.imag[:, None] - points.imag[None, :]
    return dre * dre + dim * dim


def _block_symbols(p: int) -> int:
    """Symbols per block: the largest power of two, at least 4, whose
    block x p distance matrix fits in BLOCK_ELEMENTS."""
    return max(4, 1 << ((BLOCK_ELEMENTS // p).bit_length() - 1))


def soft_demodulate(y_hat: np.ndarray, cons: Constellation, sigma2: float,
                    sigma_l: float = SIGMA_L_DEFAULT) -> np.ndarray:
    """Per-symbol softmax reconstruction of real-valued integer estimates.

    ``y_hat`` is (..., k): the last axis is one message. Output entries lie
    in ``[0, p-1]`` (convex combinations of the values). Each message is
    processed in blocks of :func:`_block_symbols` symbols that never span
    two messages, so a message's output does not depend on the batch it is
    in and memory does not grow with the batch.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not sigma_l > 0:
        raise ValueError(f"sigma_l must be positive, got {sigma_l}")
    y_hat = np.asarray(y_hat, dtype=np.complex128)
    values = np.arange(len(cons.points), dtype=np.float64)
    inv = 1.0 / (math.pi * sigma2)
    block = _block_symbols(len(cons.points))
    messages = y_hat.reshape(-1, y_hat.shape[-1])
    out = np.empty(messages.shape, dtype=np.float64)
    for m, message in enumerate(messages):
        for s in range(0, message.shape[0], block):
            d2 = _point_distances_sq(message[s:s + block], cons.points)
            a = sigma_l * (inv * np.exp(-d2 / sigma2))
            a -= a.max(axis=1, keepdims=True)
            w = np.exp(a)
            w /= w.sum(axis=1, keepdims=True)
            out[m, s:s + block] = w @ values
    return out.reshape(y_hat.shape)


def nearest_point_demodulate(y_hat: np.ndarray, cons: Constellation) -> np.ndarray:
    """Hard minimum-distance detection; ties pick the lower index."""
    y_hat = np.asarray(y_hat, dtype=np.complex128)
    out = np.empty(y_hat.shape[0], dtype=np.int64)
    block = _block_symbols(len(cons.points))
    for s in range(0, y_hat.shape[0], block):
        d2 = _point_distances_sq(y_hat[s:s + block], cons.points)
        out[s:s + block] = np.argmin(d2, axis=1)
    return out


def receive(c: np.ndarray, cons: Constellation | None, sigma2: float,
            sigma_l: float, seed: int, message_indices) -> np.ndarray:
    """Channel and receiver for (B, k) ciphertext rows.

    Row i is modulated, perturbed by AWGN drawn from
    ``stream(seed, message_indices[i])`` and soft-demodulated. ``sigma2 == 0``
    is the exact noiseless limit: the demodulator output converges to the
    transmitted integers, which are returned as floats (``cons`` is unused).
    """
    c = np.asarray(c)
    if c.ndim != 2 or len(message_indices) != c.shape[0]:
        raise ValueError(f"need (B, k) rows and B message indices, got shape "
                         f"{c.shape} and {len(message_indices)} indices")
    if sigma2 == 0.0:
        return c.astype(np.float64)
    y = modulate(c, cons)
    y_hat = np.empty_like(y)
    for row, index in enumerate(message_indices):
        y_hat[row] = awgn(y[row], sigma2, stream(seed, int(index)))
    return soft_demodulate(y_hat, cons, sigma2, sigma_l)
