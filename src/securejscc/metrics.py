"""Image distortion metrics: MSE, PSNR, SSIM and MS-SSIM.

All statistics are global per channel (no sliding window). Images are
H x W or H x W x C arrays of reals with 8-bit content: ``PEAK`` is the
maximum pixel value.
"""

from __future__ import annotations

import math

import numpy as np

PEAK = 255.0
# stability constants and scale weights from the standard MS-SSIM defaults
V1_FACTOR = 0.01
V2_FACTOR = 0.03
MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def _channels(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return x[:, :, None]
    if x.ndim == 3:
        return x
    raise ValueError(f"expected HxW or HxWxC image, got shape {x.shape}")


def _check_pair(x: np.ndarray, x_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a, b = _channels(x), _channels(x_hat)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def mse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Mean squared per-element difference."""
    a, b = _check_pair(x, x_hat)
    return float(np.mean((a - b) ** 2))


def psnr(x: np.ndarray, x_hat: np.ndarray) -> float:
    """10 * log10(PEAK^2 / MSE) in dB; identical images give +inf."""
    err = mse(x, x_hat)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / err)


def _luminance_term(a: np.ndarray, b: np.ndarray, v1: float) -> float:
    mu_a, mu_b = a.mean(), b.mean()
    return (2.0 * mu_a * mu_b + v1) / (mu_a ** 2 + mu_b ** 2 + v1)


def _contrast_term(a: np.ndarray, b: np.ndarray, v2: float) -> float:
    sa, sb = a.std(), b.std()
    return (2.0 * sa * sb + v2) / (sa ** 2 + sb ** 2 + v2)


def _structure_term(a: np.ndarray, b: np.ndarray, v3: float) -> float:
    cov = float(np.mean((a - a.mean()) * (b - b.mean())))
    return (cov + v3) / (a.std() * b.std() + v3)


def ssim(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Global-statistics structural similarity, averaged over channels.

    Product of a luminance term and a contrast term; the contrast term uses
    the product of standard deviations (not the covariance) in its
    numerator.
    """
    a, b = _check_pair(x, x_hat)
    v1 = (V1_FACTOR * PEAK) ** 2
    v2 = (V2_FACTOR * PEAK) ** 2
    vals = [_luminance_term(a[:, :, c], b[:, :, c], v1)
            * _contrast_term(a[:, :, c], b[:, :, c], v2)
            for c in range(a.shape[2])]
    return float(np.mean(vals))


def _downsample2(x: np.ndarray) -> np.ndarray:
    """2x2 mean pooling with stride 2; odd trailing rows/cols are dropped."""
    h, w = x.shape[0] // 2 * 2, x.shape[1] // 2 * 2
    x = x[:h, :w]
    return 0.25 * (x[0::2, 0::2] + x[1::2, 0::2] + x[0::2, 1::2] + x[1::2, 1::2])


def ms_ssim(x: np.ndarray, x_hat: np.ndarray, scales: int = 5) -> float:
    """Multi-scale structural similarity, averaged over channels.

    Contrast and structure terms are evaluated on a dyadic pyramid (2x2
    mean pooling per scale); the luminance term enters only at the coarsest
    scale. Exponents follow the standard five-scale weights, truncated to
    ``scales`` entries. Requires min(H, W) >= 2**(scales-1).
    """
    a, b = _check_pair(x, x_hat)
    if not 1 <= scales <= len(MSSSIM_WEIGHTS):
        raise ValueError(f"scales must be in [1, {len(MSSSIM_WEIGHTS)}], got {scales}")
    if min(a.shape[0], a.shape[1]) < 2 ** (scales - 1):
        raise ValueError(
            f"image {a.shape[0]}x{a.shape[1]} too small for {scales} scales")
    v1 = (V1_FACTOR * PEAK) ** 2
    v2 = (V2_FACTOR * PEAK) ** 2
    v3 = v2 / 2.0
    weights = MSSSIM_WEIGHTS[:scales]
    vals = []
    for c in range(a.shape[2]):
        ca, cb = a[:, :, c], b[:, :, c]
        score = 1.0
        for j in range(scales):
            contrast = _contrast_term(ca, cb, v2)
            structure = _structure_term(ca, cb, v3)
            # negative factors are clipped before fractional powers
            score *= max(contrast, 0.0) ** weights[j]
            score *= max(structure, 0.0) ** weights[j]
            if j == scales - 1:
                score *= max(_luminance_term(ca, cb, v1), 0.0) ** weights[j]
            else:
                ca, cb = _downsample2(ca), _downsample2(cb)
        vals.append(score)
    return float(np.mean(vals))
