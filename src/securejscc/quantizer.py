"""Uniform latent quantization onto centroids inside Z_p.

The centroid grid is ``floor(i * p / n_levels)`` for ``i = 0 .. n_levels-1``,
so quantized values are valid plaintext symbols. Hard quantization is the
nearest-centroid map; its differentiable surrogate is a softmax over
negative squared distances whose sharpness ``sigma_q`` is annealed during
training. Dequantization of noisy plaintexts uses the same softmax form
with unit sharpness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIGMA_Q_INITIAL = 5.0
SIGMA_Q_CAP = 200.0
SIGMA_Q_RAMP = 5.0
SIGMA_Q_PERIOD = 2000


def check_levels(p: int, n_levels: int, modulus: str = "p") -> None:
    """Reject a level count the grid cannot hold; ``modulus`` names ``p``."""
    if not 2 <= n_levels <= p:
        raise ValueError(f"n_levels must lie in [2, {modulus} = {p}], got {n_levels}")


def build_centroids(p: int, n_levels: int) -> np.ndarray:
    """The ``n_levels`` values ``floor(i * p / n_levels)``, strictly increasing."""
    check_levels(p, n_levels)
    i = np.arange(n_levels, dtype=np.int64)
    return (i * p) // n_levels


@dataclass
class QuantizerConfig:
    p: int
    n_levels: int
    centroids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.centroids = build_centroids(self.p, self.n_levels)


def _check_finite(z: np.ndarray, what: str) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{what} must be finite")
    return z


def hard_quantize(z: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """The nearest centroid's value (int64) for each entry, in ``z``'s shape;
    ties go to the lower centroid."""
    z = _check_finite(z, "latent vector")
    c = cfg.centroids
    # midpoints of integer centroids are exact halves; side="left" ties go low
    return c[np.searchsorted((c[:-1] + c[1:]) / 2, z, side="left")]


def _centroid_weights(z: np.ndarray, cfg: QuantizerConfig, sharpness: float,
                      what: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry softmax over ``-sharpness * (z - q)^2``; returns (w, q)."""
    if not sharpness > 0:
        raise ValueError(f"sigma_q must be positive, got {sharpness}")
    z = _check_finite(z, what)
    q = cfg.centroids.astype(np.float64)
    a = -sharpness * (z[..., None] - q[None, :]) ** 2
    # max subtraction is exact: softmax is shift invariant. The max is the nearest
    # centroid's entry (rounding is monotone), recomputed without a row reduction
    near = q[np.searchsorted((q[:-1] + q[1:]) / 2, z, side="left")]
    a -= (-sharpness * (z - near) ** 2)[..., None]
    # exp is exactly 0 at or below -746: masking those keeps exp off its slow path
    w = np.exp(a, out=np.zeros_like(a), where=a > -746.0)
    return w / w.sum(axis=-1, keepdims=True), q


def soft_quantize_jacobian(z: np.ndarray, cfg: QuantizerConfig,
                           sigma_q: float) -> np.ndarray:
    """Elementwise derivative of the soft quantizer ``w @ q``, with ``w``
    the softmax over ``-sigma_q * (z - q)^2`` across centroids q.

    The map is separable, so the Jacobian is diagonal with entries
    ``2 * sigma_q * Var_w(q)``, the softmax-weighted centroid variance.
    """
    w, q = _centroid_weights(z, cfg, sigma_q, "latent vector")
    mean = w @ q
    second = w @ (q * q)
    return 2.0 * sigma_q * (second - mean * mean)


def anneal_sigma_q(step: int) -> float:
    """sigma_q at training step ``step``: a linear ramp toward the hard limit,
    SIGMA_Q_RAMP per SIGMA_Q_PERIOD steps from SIGMA_Q_INITIAL, capped at
    SIGMA_Q_CAP."""
    return min(SIGMA_Q_CAP, SIGMA_Q_INITIAL + SIGMA_Q_RAMP * (step // SIGMA_Q_PERIOD))


def soft_dequantize(z_prime: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Softmax-weighted centroid sum of a noisy plaintext, unit sharpness.

    Distances are plain squared differences on ``[0, p)`` residues, not
    circular ones: a symbol near 0 whose noise wraps past 0 lands near p,
    next to the top centroid, and decodes to it.
    """
    w, q = _centroid_weights(z_prime, cfg, 1.0, "noisy plaintext")
    return w @ q
