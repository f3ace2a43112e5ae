"""Image distortion metrics: MSE, PSNR, SSIM and MS-SSIM.

All statistics are global per channel (no sliding window). Images are
H x W or H x W x C arrays of reals with 8-bit content: ``PEAK`` is the
maximum pixel value. Each metric gives a float for one image and one
value per image for an N x H x W x C stack.
"""

from __future__ import annotations

import math

import numpy as np

PEAK = 255.0
# stability constants (K1 = 0.01, K2 = 0.03) and scale weights from the
# standard MS-SSIM defaults (Wang et al., 2004)
C1 = (0.01 * PEAK) ** 2
C2 = (0.03 * PEAK) ** 2
C3 = C2 / 2.0
MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


def _stack(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not 2 <= x.ndim <= 4:
        raise ValueError(f"expected HxW or HxWxC image or NxHxWxC stack, "
                         f"got shape {x.shape}")
    return x if x.ndim == 4 else x[None, :, :, None] if x.ndim == 2 else x[None]


def _check_pair(x: np.ndarray, x_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as (N, H, W, C) stacks of equal shape."""
    a, b = _stack(x), _stack(x_hat)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _per_image(values: np.ndarray, x) -> float | np.ndarray:
    """A stack's values, or the float of a single image."""
    return np.asarray(values) if np.ndim(x) == 4 else float(values[0])


def mse(x: np.ndarray, x_hat: np.ndarray) -> float | np.ndarray:
    """Mean squared per-element difference."""
    a, b = _check_pair(x, x_hat)
    return _per_image(((a - b) ** 2).reshape(len(a), -1).mean(axis=1), x)


def psnr(x: np.ndarray, x_hat: np.ndarray) -> float | np.ndarray:
    """10 * log10(PEAK^2 / MSE) in dB; identical images give +inf."""
    return _per_image([10.0 * math.log10(PEAK * PEAK / err) if err else math.inf
                       for err in np.atleast_1d(mse(x, x_hat)).tolist()], x)


def _luminance_term(mu_a: float, mu_b: float) -> float:
    return (2.0 * mu_a * mu_b + C1) / (mu_a ** 2 + mu_b ** 2 + C1)


def _contrast_term(sa: float, sb: float) -> float:
    return (2.0 * sa * sb + C2) / (sa ** 2 + sb ** 2 + C2)


def _structure_term(a: np.ndarray, b: np.ndarray) -> float:
    cov = float(np.mean((a - a.mean()) * (b - b.mean())))
    return (cov + C3) / (a.std() * b.std() + C3)


def ssim(x: np.ndarray, x_hat: np.ndarray) -> float | np.ndarray:
    """Global-statistics structural similarity, averaged over channels.

    Product of a luminance term and a contrast term; the contrast term uses
    the product of standard deviations (not the covariance) in its
    numerator.
    """
    a, b = _check_pair(x, x_hat)
    vals = np.empty((len(a), a.shape[3]))
    for c in range(a.shape[3]):
        # each image's plane statistics, then scalar terms: a square there is
        # a float power, as for a single image
        stats = zip(*(f(axis=(1, 2)).tolist() for s in (a[..., c], b[..., c])
                      for f in (s.mean, s.std)))
        vals[:, c] = [_luminance_term(mu_a, mu_b) * _contrast_term(sa, sb)
                      for mu_a, sa, mu_b, sb in stats]
    return _per_image(vals.mean(axis=1), x)


def _downsample2(x: np.ndarray) -> np.ndarray:
    """2x2 mean pooling with stride 2; odd trailing rows/cols are dropped."""
    h, w = x.shape[0] // 2 * 2, x.shape[1] // 2 * 2
    x = x[:h, :w]
    return 0.25 * (x[0::2, 0::2] + x[1::2, 0::2] + x[0::2, 1::2] + x[1::2, 1::2])


def ms_ssim(x: np.ndarray, x_hat: np.ndarray, scales: int = 5) -> float | np.ndarray:
    """Multi-scale structural similarity, averaged over channels.

    Contrast and structure terms are evaluated on a dyadic pyramid (2x2
    mean pooling per scale); the luminance term enters only at the coarsest
    scale. Exponents follow the standard five-scale weights, truncated to
    ``scales`` entries. Requires min(H, W) >= 2**(scales-1).
    """
    a, b = _check_pair(x, x_hat)
    if not 1 <= scales <= len(MSSSIM_WEIGHTS):
        raise ValueError(f"scales must be in [1, {len(MSSSIM_WEIGHTS)}], got {scales}")
    if min(a.shape[1], a.shape[2]) < 2 ** (scales - 1):
        raise ValueError(
            f"image {a.shape[1]}x{a.shape[2]} too small for {scales} scales")
    weights = MSSSIM_WEIGHTS[:scales]
    vals = np.empty((len(a), a.shape[3]))
    for i, c in np.ndindex(vals.shape):
        ca, cb = a[i, :, :, c], b[i, :, :, c]
        score = 1.0
        for j in range(scales):
            contrast = _contrast_term(ca.std(), cb.std())
            structure = _structure_term(ca, cb)
            # negative factors are clipped before fractional powers
            score *= max(contrast, 0.0) ** weights[j]
            score *= max(structure, 0.0) ** weights[j]
            if j == scales - 1:
                score *= max(_luminance_term(ca.mean(), cb.mean()), 0.0) ** weights[j]
            else:
                ca, cb = _downsample2(ca), _downsample2(cb)
        vals[i, c] = score
    return _per_image(vals.mean(axis=1), x)
