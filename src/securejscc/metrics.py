"""Image distortion metrics: MSE, PSNR, SSIM and MS-SSIM.

All statistics are global per channel (no sliding window). Each metric
takes two N x H x W x C stacks of equal shape, reals with 8-bit content
(``PEAK`` is the maximum pixel value), and returns a float64 array with
one value per image.
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


def _check_pair(x: np.ndarray, x_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float64 (N, H, W, C) stacks of equal shape."""
    a, b = np.asarray(x, dtype=np.float64), np.asarray(x_hat, dtype=np.float64)
    if a.ndim != 4 or a.shape != b.shape:
        raise ValueError(f"expected two N x H x W x C stacks of equal shape, "
                         f"got {a.shape} and {b.shape}")
    return a, b


def mse(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """Mean squared per-element difference."""
    a, b = _check_pair(x, x_hat)
    return ((a - b) ** 2).reshape(len(a), math.prod(a.shape[1:])).mean(axis=1)


def psnr(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """10 * log10(PEAK^2 / MSE) in dB; identical images give +inf."""
    return np.array([10.0 * math.log10(PEAK * PEAK / err) if err else math.inf
                     for err in mse(x, x_hat).tolist()], dtype=np.float64)


def _luminance_term(mu_a, mu_b):
    return (2.0 * mu_a * mu_b + C1) / (mu_a ** 2 + mu_b ** 2 + C1)


def _contrast_term(sa, sb):
    return (2.0 * sa * sb + C2) / (sa ** 2 + sb ** 2 + C2)


def ssim(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """Global-statistics structural similarity, averaged over channels.

    Product of a luminance term and a contrast term; the contrast term uses
    the product of standard deviations (not the covariance) in its
    numerator.
    """
    a, b = _check_pair(x, x_hat)
    vals = np.empty((len(a), a.shape[3]))
    for c in range(a.shape[3]):
        # each image's plane statistics, then scalar terms: the golden sweeps
        # pin their float powers, which array arithmetic moves in the last bit
        stats = zip(*(f(axis=(1, 2)).tolist() for s in (a[..., c], b[..., c])
                      for f in (s.mean, s.std)))
        vals[:, c] = [_luminance_term(mu_a, mu_b) * _contrast_term(sa, sb)
                      for mu_a, sa, mu_b, sb in stats]
    return vals.mean(axis=1)


def _downsample2(x: np.ndarray) -> np.ndarray:
    """2x2 mean pooling with stride 2 over a stack's H and W; odd trailing
    rows/cols are dropped."""
    x = x[:, :x.shape[1] // 2 * 2, :x.shape[2] // 2 * 2]
    return 0.25 * (x[:, ::2, ::2] + x[:, 1::2, ::2] + x[:, ::2, 1::2] + x[:, 1::2, 1::2])


def ms_ssim(x: np.ndarray, x_hat: np.ndarray, scales: int = 5) -> np.ndarray:
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
    score = np.ones((len(a), a.shape[3]))
    for j, weight in enumerate(MSSSIM_WEIGHTS[:scales]):
        if j:
            a, b = _downsample2(a), _downsample2(b)
        # each (image, channel) plane's statistics, one pass for the stack
        mu_a, mu_b = a.mean(axis=(1, 2)), b.mean(axis=(1, 2))
        sa, sb = a.std(axis=(1, 2)), b.std(axis=(1, 2))
        cov = np.mean((a - mu_a[:, None, None]) * (b - mu_b[:, None, None]), axis=(1, 2))
        terms = [_contrast_term(sa, sb), (cov + C3) / (sa * sb + C3)]
        if j == scales - 1:
            terms.append(_luminance_term(mu_a, mu_b))
        for term in terms:  # negative factors are clipped before fractional powers
            score *= np.maximum(term, 0.0) ** weight
    return score.mean(axis=1)
