"""QAM constellation, AWGN channel and likelihood-based soft demodulation.

Integer symbols in ``[0, p)`` map one-to-one onto a power-normalized square
QAM grid. The receiver never hard-slices: it weighs the constellation
points by a softmax of their complex Gaussian likelihoods and reconstructs
a real-valued symbol estimate as the weighted sum of the integer values,
which downstream stages treat as a noisy ciphertext. On the square grid
the likelihood is a product of per-axis terms, and a symbol whose peak
score is high enough is scored only on a window of points around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NewType

import numpy as np

from .rng import message_streams, normal_rows

MAX_CONSTELLATION = 4096
SIGMA_L_DEFAULT = 5.0
# symbols x window points of one demodulator block: 1 MiB of float64
BLOCK_ELEMENTS = 1 << 17
# A symbol's window drops points whose score is more than GAP below the
# peak, i.e. whose softmax weight is <= e^-GAP of the peak's. At most p - 1
# such weights move an estimate in [0, p-1] by <= (p-1)^2 e^-GAP: 7e-11 at
# p = 4093, well inside the 1e-9 the demodulator is held to.
GAP = 40.0
# Scores lie in [0, c], c = sigma_l / (pi sigma2). For c <= SHIFT_FREE, e^c
# summed over <= 4096 points and weighted by values < 4096 stays finite, so
# the softmax need not subtract its maximum.
SHIFT_FREE = 600.0


@dataclass(frozen=True)
class Constellation:
    points: np.ndarray  # complex, length p, ordered by integer value
    avg_power: float
    levels: np.ndarray  # grid levels per axis: point m*b + a is (levels[a], levels[b])


# an SNR in dB: finite, or +inf for a noiseless channel
Db = NewType("Db", float)


def noise_variance(snr_db: Db, avg_power: float, what: str = "SNR") -> float:
    """Complex AWGN variance per symbol at ``snr_db``; +inf dB gives 0. Any
    other SNR must give a positive normal float64; a ValueError names ``what``."""
    if snr_db == math.inf:
        return 0.0
    try:
        sigma2 = avg_power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:  # rejected below, as nan and -inf dB are
        sigma2 = math.inf
    if not np.finfo(float).smallest_normal <= sigma2 < math.inf:
        raise ValueError(f"{what} must be finite or +inf dB with a noise variance "
                         f"in float64's normal range, got {snr_db} dB")
    return sigma2


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
    return Constellation(points=points * scale, avg_power=float(target_power),
                         levels=levels * scale)


def modulate(values: np.ndarray, cons: Constellation) -> np.ndarray:
    """Look up the constellation point for each integer value."""
    v = np.asarray(values, dtype=np.int64)
    if np.any(v < 0) or np.any(v >= len(cons.points)):
        raise ValueError(f"symbol values must lie in [0, {len(cons.points)})")
    return cons.points[v]


def channel_noise(cons: Constellation, snr_db: Db | np.ndarray, k: int, seed: int,
                  message_indices) -> tuple[np.ndarray, np.ndarray]:
    """Each of B messages' noise variance at its SNR (``snr_db``: one
    :data:`Db` or one per message) and its k complex Gaussian noise symbols
    of that total variance: the real, then the imaginary parts drawn from
    ``stream(seed, message_indices[i])``, zero at +inf dB, which draws
    nothing. No index may repeat (:func:`~securejscc.rng.message_streams`).
    """
    keyed = message_streams(seed, message_indices)
    snrs = np.asarray(snr_db, dtype=np.float64)
    if snrs.ndim and snrs.shape != (len(keyed),):
        raise ValueError(f"need one SNR or one per row: {len(keyed)} rows, "
                         f"SNR shape {snrs.shape}")
    snrs = np.broadcast_to(snrs, len(keyed)).tolist()
    variances = {snr: noise_variance(snr, cons.avg_power) for snr in dict.fromkeys(snrs)}
    sigma2 = np.array([variances[snr] for snr in snrs])
    noise = np.zeros((len(keyed), k), dtype=np.complex128)
    noisy = np.flatnonzero(sigma2 > 0.0)
    n = normal_rows(keyed.subset(noisy), (2, k))
    noise[noisy] = np.sqrt(np.divide(sigma2[noisy, None], 2.0)) * (n[:, 0] + 1j * n[:, 1])
    return sigma2, noise


def awgn(y: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The AWGN channel: finite input ``y`` plus its :func:`channel_noise`."""
    y = np.asarray(y, dtype=np.complex128)
    if noise.shape != y.shape:
        raise ValueError(f"need one noise entry per symbol: {y.shape} vs {noise.shape}")
    if not np.all(np.isfinite(y.real)) or not np.all(np.isfinite(y.imag)):
        raise ValueError("channel input must be finite")
    return y + noise


def _estimate(y: np.ndarray, col_lo: np.ndarray | None, row_lo: np.ndarray | None,
              width: int, levels: np.ndarray, p: int, sigma2: float,
              c: float) -> np.ndarray:
    """Softmax estimates of symbols ``y`` over width x width grid windows.

    Symbol i is scored on grid columns ``col_lo[i] + [0, width)`` and rows
    ``row_lo[i] + [0, width)`` (the whole grid, width m, takes no offsets);
    point (row b, column a) has value ``m*b + a`` and score
    ``c*exp(-dx_a^2/sigma2)*exp(-dy_b^2/sigma2)``, the outer product of two
    per-axis tables, built once for all of ``y``.
    Points at or past ``p`` (the dropped grid corner) get zero weight. Each
    block of at most ``BLOCK_ELEMENTS`` points takes three passes: the outer
    product, ``exp`` in place, and one product with the moment matrix
    ``[[1, 0], [1, 1], ..., [1, width-1]]`` that gives every window row its
    weight and its column-weighted weight. Each output row of that product
    is one window row's own sums, and the final sums run elementwise within
    one symbol, so a symbol's estimate does not depend on the other symbols.
    """
    m, n = len(levels), len(y)
    steps = np.arange(width)
    if whole := width == m:  # the levels themselves, no gather; the corner is a flat tail
        rows = steps
        col_levels = row_levels = levels
    else:
        cols = col_lo[:, None] + steps
        rows = row_lo[:, None] + steps
        col_levels, row_levels = levels[cols], levels[rows]
        # the dropped points of a window are a suffix of its row-major order
        cut = np.minimum(np.maximum((p // m - row_lo) * width + np.minimum(
            np.maximum(p % m - col_lo, 0), width), 0), width * width)
        starts = set(cut[cut < width * width].tolist())
    x = c * np.exp(-(y.real[:, None] - col_levels) ** 2 / sigma2)
    e = np.exp(-(y.imag[:, None] - row_levels) ** 2 / sigma2)
    moments = np.ones((width, 2))
    moments[:, 1] = steps
    sums = np.empty((n, width, 2))
    block = max(1, BLOCK_ELEMENTS // (width * width))
    buf = np.empty(min(n, block) * width * width)
    for lo in range(0, n, block):
        b = slice(lo, lo + block)
        s = buf[:len(e[b]) * width * width].reshape(-1, width, width)
        np.einsum("ni,nj->nij", e[b], x[b], out=s)
        flat = s.reshape(len(s), -1)
        if whole:
            flat[:, p:] = -np.inf
        else:
            for start in starts:
                flat[cut[b] == start, start:] = -np.inf
        if c > SHIFT_FREE:
            flat -= flat.max(axis=1)[:, None]
        np.exp(s, out=s)
        np.matmul(s.reshape(-1, width), moments, out=sums[b].reshape(-1, 2))
    row_w, col_mw = sums[..., 0], sums[..., 1]
    total = row_w.sum(axis=1)
    moment = m * (rows * row_w).sum(axis=1) + col_mw.sum(axis=1)
    return moment / total if whole else (moment + col_lo * total) / total


def soft_demodulate(y_hat: np.ndarray, cons: Constellation, sigma2: float,
                    sigma_l: float = SIGMA_L_DEFAULT) -> np.ndarray:
    """Per-symbol softmax reconstruction of real-valued integer estimates.

    Value j gets weight ``softmax_j(sigma_l * N(y; x_j, sigma2))`` and the
    output is the weighted mean of the values, so entries lie in
    ``[0, p-1]``. ``y_hat`` is (..., k) and must be finite. The score of a
    grid point factorises into per-axis terms (see :func:`_estimate`). A
    symbol's peak score is its score at its nearest grid point. If that
    point is retained and the peak exceeds ``GAP``, the symbol is scored on
    a window of grid indices around the point, wide enough that every point
    outside it weighs at most ``e^-GAP`` of the peak; the dropped weights
    move the estimate by at most ``(p-1)^2 e^-GAP``. Every other symbol is
    scored on the whole grid, as is every symbol, without window bookkeeping,
    when ``c = sigma_l / (pi sigma2) <= GAP``. A symbol's output depends only on that
    symbol, so a message's output does not depend on the batch it is in,
    and the symbols of all messages run flat in cache-sized blocks.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not sigma_l > 0:
        raise ValueError(f"sigma_l must be positive, got {sigma_l}")
    y_hat = np.asarray(y_hat, dtype=np.complex128)
    if not np.all(np.isfinite(y_hat)):
        raise ValueError("received symbols must be finite")
    y = y_hat.reshape(-1)
    levels, p = cons.levels, len(cons.points)
    m = len(levels)
    spacing = levels[1] - levels[0]
    c = sigma_l / (math.pi * sigma2)  # the peak score
    if not math.isfinite(c):
        raise ValueError(f"sigma_l / (pi sigma2) overflows: {sigma_l} / (pi * {sigma2})")
    out = np.empty(y.shape)
    with np.errstate(over="ignore"):  # far-off symbols: scores underflow to 0
        if c <= GAP:  # no peak exceeds GAP
            chunk = max(1, BLOCK_ELEMENTS // (2 * m))
            for s in range(0, len(y), chunk):
                out[s:s + chunk] = _estimate(y[s:s + chunk], None, None, m,
                                             levels, p, sigma2, c)
            return out.reshape(y_hat.shape)
        near_col = np.rint(np.clip((y.real - levels[0]) / spacing, 0, m - 1))
        near_row = np.rint(np.clip((y.imag - levels[0]) / spacing, 0, m - 1))
        near_col, near_row = near_col.astype(np.intp), near_row.astype(np.intp)
        # a symbol's largest score, at its nearest grid point
        peak = c * np.exp(-((y.real - levels[near_col]) ** 2
                            + (y.imag - levels[near_row]) ** 2) / sigma2)
        sharp = (peak > GAP) & (near_row * m + near_col < p)
        # beyond r on either axis a score is <= peak - GAP; widths of
        # 2^j + 1 keep the passes at log2(m) + 1
        r = np.sqrt(sigma2 * np.log(c / (peak[sharp] - GAP)))
        half = np.ceil(r / spacing) + 1
        width = np.full(y.shape, m)
        width[sharp] = np.minimum(m, 2.0 ** np.ceil(np.log2(2 * half)) + 1)
        for w in sorted(set(width.tolist())):
            idx = np.flatnonzero(width == w)
            col_lo = np.minimum(np.maximum(near_col[idx] - (w - 1) // 2, 0), m - w)
            row_lo = np.minimum(np.maximum(near_row[idx] - (w - 1) // 2, 0), m - w)
            # two per-axis tables of w entries per symbol fill one block
            chunk = max(1, BLOCK_ELEMENTS // (2 * w))
            for s in range(0, len(idx), chunk):
                b = slice(s, s + chunk)
                out[idx[b]] = _estimate(y[idx[b]], col_lo[b], row_lo[b], w,
                                        levels, p, sigma2, c)
    return out.reshape(y_hat.shape)


def receive(c: np.ndarray, cons: Constellation, sigma2: np.ndarray,
            noise: np.ndarray, sigma_l: float) -> np.ndarray:
    """Channel and receiver for (B, k) ciphertext rows on their
    :func:`channel_noise` draws ``sigma2`` (B,) and ``noise`` (B, k): the
    noisy rows share one :func:`awgn` call, and the rows of one variance one
    demodulator call. A zero-variance (+inf dB) row is the exact noiseless
    limit, to which the demodulator converges: its integers, as floats."""
    c = np.asarray(c)
    if c.ndim != 2 or noise.shape != c.shape or sigma2.shape != c.shape[:1]:
        raise ValueError(f"need (B, k) rows, one noise row and one variance each, got "
                         f"shapes {c.shape}, {noise.shape} and {sigma2.shape}")
    noisy = np.flatnonzero(sigma2 > 0.0)
    out = c.astype(np.float64)
    sigma2 = sigma2[noisy]
    y_hat = awgn(modulate(c[noisy], cons), noise[noisy])
    for s2 in set(sigma2.tolist()):
        rows = sigma2 == s2
        out[noisy[rows]] = soft_demodulate(y_hat[rows], cons, s2, sigma_l)
    return out
