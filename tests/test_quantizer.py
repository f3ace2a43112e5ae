from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from securejscc.quantizer import (SIGMA_Q_CAP, QuantizerConfig, anneal_sigma_q,
                                  build_centroids, hard_quantize,
                                  soft_dequantize, soft_quantize_jacobian)
from securejscc.rng import stream

REFERENCE_CENTROIDS = [0, 255, 511, 767, 1023, 1279, 1534, 1790, 2046, 2302,
                       2558, 2813, 3069, 3325, 3581, 3837]


def test_centroids_reference_grid():
    got = build_centroids(4093, 16)
    oracle = [(i * 4093) // 16 for i in range(16)]
    assert got.tolist() == oracle == REFERENCE_CENTROIDS


def test_centroids_small_cases():
    assert build_centroids(4, 4).tolist() == [0, 1, 2, 3]
    assert build_centroids(10, 2).tolist() == [0, 5]


def test_centroids_strictly_increasing_in_range():
    c = build_centroids(997, 13)
    assert np.all(np.diff(c) > 0)
    assert c[0] == 0 and c[-1] < 997


@pytest.mark.parametrize("p,n", [(10, 1), (10, 11), (4, 5)])
def test_centroids_invalid(p, n):
    with pytest.raises(ValueError):
        build_centroids(p, n)


# -- hard quantization -------------------------------------------------------


def test_hard_quantize_exact_centroid():
    cfg = QuantizerConfig(4093, 16)
    q = hard_quantize(cfg.centroids.astype(float), cfg)
    assert q.dtype == np.int64
    assert np.array_equal(q, cfg.centroids)


def test_hard_quantize_nearest_oracle():
    cfg = QuantizerConfig(4093, 16)
    assert hard_quantize(np.array([127.0]), cfg)[0] == 0  # 127 < 128
    assert hard_quantize(np.array([128.0]), cfg)[0] == 255
    z = np.linspace(-50, 4200, 313)
    got = hard_quantize(z, cfg)
    oracle = np.array([min(REFERENCE_CENTROIDS, key=lambda q: (zi - q) ** 2)
                       for zi in z])
    assert np.array_equal(got, oracle)


def test_hard_quantize_saturates():
    cfg = QuantizerConfig(4093, 16)
    assert hard_quantize(np.array([1e9]), cfg)[0] == 3837
    assert hard_quantize(np.array([-1e9]), cfg)[0] == 0
    # float distances to every centroid tie here; the nearest is still an end
    assert hard_quantize(np.array([1e20, -1e20, 1e300]), cfg).tolist() == [3837, 0, 3837]


def test_hard_quantize_tie_to_lower_index():
    cfg = QuantizerConfig(4, 2)  # centroids [0, 2]
    assert hard_quantize(np.array([1.0]), cfg)[0] == 0


def nearest_centroid(z: float, centroids: np.ndarray) -> int:
    """The argmin oracle over exact distances: the first (lower) centroid
    wins a tie, and no distance rounds, however large ``z`` is."""
    exact = Fraction(z)
    d = [abs(exact - int(c)) for c in centroids]
    return int(centroids[d.index(min(d))])


QUANTIZER_GRIDS = [(4, 2), (17, 17), (251, 16), (257, 256), (997, 13), (4093, 16),
                   (4093, 4093)]


@st.composite
def grid_and_latents(draw):
    """A centroid grid and latents on it: anywhere near Z_p, on a midpoint
    or one float from it, or any finite float."""
    cfg = QuantizerConfig(*draw(st.sampled_from(QUANTIZER_GRIDS)))
    mids = (cfg.centroids[:-1] + cfg.centroids[1:]) / 2
    near_mid = st.tuples(st.sampled_from(mids.tolist()), st.sampled_from(
        [-np.inf, None, np.inf])).map(lambda m: m[0] if m[1] is None
                                      else float(np.nextafter(m[0], m[1])))
    value = st.one_of(st.floats(-2.0 * cfg.p, 2.0 * cfg.p), near_mid,
                      st.floats(allow_nan=False, allow_infinity=False))
    return cfg, draw(st.lists(value, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(grid_and_latents())
def test_hard_quantize_matches_argmin_oracle(case):
    cfg, values = case
    got = hard_quantize(np.array(values), cfg)
    assert got.tolist() == [nearest_centroid(z, cfg.centroids) for z in values]


def test_hard_quantize_rejects_nonfinite():
    with pytest.raises(ValueError):
        hard_quantize(np.array([np.inf]), QuantizerConfig(16, 4))


@pytest.mark.parametrize("sigma_q", [0.0, -5.0])
def test_soft_quantize_jacobian_rejects_non_positive_sharpness(sigma_q):
    with pytest.raises(ValueError, match="sigma_q must be positive"):
        soft_quantize_jacobian(np.array([1.0, 2.0]), QuantizerConfig(16, 4), sigma_q)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32))
def test_hard_quantize_idempotent(values):
    cfg = QuantizerConfig(4093, 16)
    once = hard_quantize(np.array(values), cfg)
    twice = hard_quantize(once.astype(float), cfg)
    assert np.array_equal(once, twice)


# -- soft quantization -------------------------------------------------------


def soft_quantize(z: np.ndarray, cfg: QuantizerConfig, sigma_q: float) -> np.ndarray:
    """The soft quantizer: softmax-weighted centroid sum with sharpness
    ``sigma_q``, the map whose derivative :func:`soft_quantize_jacobian` is.

    Converges to :func:`hard_quantize` as sigma_q grows and to the centroid
    mean as sigma_q -> 0.
    """
    return plain_weights(z, cfg, sigma_q) @ cfg.centroids.astype(np.float64)


def plain_weights(z: np.ndarray, cfg: QuantizerConfig, sharpness: float) -> np.ndarray:
    """The centroid softmax with a plain ``exp`` of the max-shifted scores."""
    q = cfg.centroids.astype(np.float64)
    a = -sharpness * (np.asarray(z, dtype=np.float64)[..., None] - q) ** 2
    w = np.exp(a - a.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def plain_jacobian(z: np.ndarray, cfg: QuantizerConfig, sigma_q: float) -> np.ndarray:
    q = cfg.centroids.astype(np.float64)
    w = plain_weights(z, cfg, sigma_q)
    mean = w @ q
    return 2.0 * sigma_q * (w @ (q * q) - mean * mean)


# shifted scores: exp is normal above -708, subnormal in (-746, -708] and 0 below
SCORE_BANDS = [(-707.9, 0.0), (-745.9, -708.1), (-5000.0, -746.1)]


def shifted_score(z: float, k: int, cfg: QuantizerConfig, sharpness: float) -> float:
    d = (z - cfg.centroids.astype(np.float64)) ** 2
    return -sharpness * d[k] + sharpness * d.min()


@st.composite
def latents_in_score_bands(draw):
    """A grid, a sharpness (1 or the sigma_q cap) and latents each of which
    gives one centroid a max-shifted score in a band drawn per latent."""
    cfg = QuantizerConfig(*draw(st.sampled_from([(4, 2), (17, 17), (251, 16),
                                                 (4093, 16)])))
    sharpness = draw(st.sampled_from([1.0, SIGMA_Q_CAP]))
    q = cfg.centroids.astype(np.float64)
    z, targets = [], []
    for _ in range(draw(st.integers(1, 8))):
        lo, hi = draw(st.sampled_from(SCORE_BANDS))
        target = draw(st.floats(lo, hi))
        k = draw(st.integers(0, cfg.n_levels - 1))
        step = 1.0 if k == 0 else -1.0 if k == cfg.n_levels - 1 else draw(
            st.sampled_from([-1.0, 1.0]))
        # the score of centroid k falls monotonically as z leaves it
        # toward the other centroids: bisect for the target
        near, far = 0.0, -target / sharpness + cfg.p
        for _ in range(200):
            mid = 0.5 * (near + far)
            if shifted_score(q[k] + step * mid, k, cfg, sharpness) > target:
                near = mid
            else:
                far = mid
        z.append(q[k] + step * near)
        targets.append((k, lo, hi))
    return cfg, sharpness, np.array(z), targets


@settings(max_examples=200, deadline=None)
@given(latents_in_score_bands())
def test_masked_exp_matches_plain_softmax_bit_for_bit(case):
    cfg, sharpness, z, targets = case
    for zi, (k, lo, hi) in zip(z, targets):
        assert lo - 0.01 <= shifted_score(zi, k, cfg, sharpness) <= hi + 0.01
    pairs = [(soft_quantize_jacobian(z, cfg, sharpness), plain_jacobian(z, cfg, sharpness)),
             (soft_dequantize(z, cfg), soft_quantize(z, cfg, 1.0))]
    for got, want in pairs:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("p, n_levels", [(4, 2), (17, 17), (251, 16), (4093, 16)])
@pytest.mark.parametrize("sharpness", [1e-3, 1.0, 5.0, SIGMA_Q_CAP, 1e6])
def test_nearest_centroid_shift_matches_row_max_bit_for_bit(p, n_levels, sharpness):
    # the softmax subtracts the nearest centroid's score, not a row max: the
    # same value, also at exact midpoints (ties), on centroids and off the grid
    cfg = QuantizerConfig(p, n_levels)
    q = cfg.centroids.astype(np.float64)
    rng = stream(21)
    z = np.concatenate([q, (q[:-1] + q[1:]) / 2, np.nextafter((q[:-1] + q[1:]) / 2, 0),
                        np.nextafter((q[:-1] + q[1:]) / 2, p), [-1e6, -0.5, p - 0.5, 1e6],
                        rng.uniform(-p, 2 * p, 500)])
    rows = z.reshape(-1, 1)
    pairs = [(soft_quantize_jacobian(z, cfg, sharpness), plain_jacobian(z, cfg, sharpness)),
             (soft_dequantize(rows, cfg), soft_quantize(rows, cfg, 1.0))]
    for got, want in pairs:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_soft_quantize_hard_limit():
    cfg = QuantizerConfig(4093, 16)
    rng = np.random.default_rng(0)
    z = rng.uniform(0, 4093, 200)
    hard = hard_quantize(z, cfg)
    # keep points at least 1.0 away from the midpoints between centroids
    mids = (cfg.centroids[:-1] + cfg.centroids[1:]) / 2.0
    keep = np.all(np.abs(z[:, None] - mids[None, :]) >= 1.0, axis=1)
    soft = soft_quantize(z, cfg, 1e4)
    assert np.all(np.abs(soft[keep] - hard[keep]) < 1e-6)


def test_soft_quantize_uniform_limit():
    cfg = QuantizerConfig(4093, 16)
    z = np.array([0.0, 500.0, 4000.0])
    assert np.allclose(soft_quantize(z, cfg, 1e-12), cfg.centroids.mean(),
                       atol=1e-6)


def test_soft_quantize_midpoint_two_centroids():
    cfg = QuantizerConfig(4093, 16)
    out = soft_quantize(np.array([127.5]), cfg, 1.0)
    assert abs(out[0] - 127.5) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=16),
       st.floats(0.01, 100.0))
def test_soft_outputs_are_convex_combinations(values, sigma_q):
    cfg = QuantizerConfig(4093, 16)
    z = np.array(values)
    for out in (soft_quantize(z, cfg, sigma_q), soft_dequantize(z, cfg)):
        assert np.all(out >= cfg.centroids[0] - 1e-9)
        assert np.all(out <= cfg.centroids[-1] + 1e-9)


def test_monotone_hardness():
    rng = np.random.default_rng(3)
    cfg0 = QuantizerConfig(4093, 16)
    mids = (cfg0.centroids[:-1] + cfg0.centroids[1:]) / 2.0
    z = rng.uniform(0, 4000, 100)
    z = z[np.all(np.abs(z[:, None] - mids[None, :]) >= 5.0, axis=1)]
    hard = hard_quantize(z, cfg0)
    prev = np.inf
    for sigma_q in (5.0, 25.0, 50.0, 100.0, 200.0):
        dist = np.max(np.abs(soft_quantize(z, cfg0, sigma_q) - hard))
        assert dist <= prev + 1e-12
        prev = dist


def central_difference_jacobian(z, cfg, sigma_q, h=1e-3):
    up = soft_quantize(z + h, cfg, sigma_q)
    down = soft_quantize(z - h, cfg, sigma_q)
    return (up - down) / (2 * h)


def test_jacobian_matches_finite_differences_small_scale():
    # a small modulus keeps distances O(1), so the softmax stays genuinely soft
    rng = np.random.default_rng(4)
    for sigma_q in (0.05, 0.2, 1.0):
        cfg = QuantizerConfig(16, 4)  # centroids [0, 4, 8, 12]
        z = rng.uniform(-2.0, 18.0, 200)
        jac = soft_quantize_jacobian(z, cfg, sigma_q)
        fd = central_difference_jacobian(z, cfg, sigma_q)
        assert np.allclose(jac, fd, rtol=1e-4, atol=1e-8)


def test_jacobian_matches_finite_differences_reference_scale():
    rng = np.random.default_rng(5)
    cfg = QuantizerConfig(4093, 16)
    mids = (cfg.centroids[:-1] + cfg.centroids[1:]) / 2.0
    z = rng.uniform(0, 4000, 100)
    z = z[np.all(np.abs(z[:, None] - mids[None, :]) >= 1.0, axis=1)]
    jac = soft_quantize_jacobian(z, cfg, 5.0)
    fd = central_difference_jacobian(z, cfg, 5.0)
    assert np.allclose(jac, fd, rtol=1e-4, atol=1e-8)


# -- annealing ---------------------------------------------------------------


def test_anneal_examples():
    # 5 per 2000 steps from 5
    for step, sigma_q in ((0, 5.0), (1999, 5.0), (2000, 10.0), (2001, 10.0),
                          (3999, 10.0), (4000, 15.0), (10 ** 6, 200.0)):
        assert anneal_sigma_q(step) == sigma_q, step


def test_anneal_caps_at_200():
    sigmas = [anneal_sigma_q(step) for step in range(0, 500_000, 997)]
    assert sigmas == sorted(sigmas) and max(sigmas) == 200.0
    assert (anneal_sigma_q(77_999), anneal_sigma_q(78_000)) == (195.0, 200.0)


# -- dequantization ----------------------------------------------------------


def test_dequantize_snaps_to_isolated_centroid():
    cfg = QuantizerConfig(4093, 16)
    out = soft_dequantize(cfg.centroids.astype(float), cfg)
    assert np.allclose(out, cfg.centroids, atol=1e-6)


def test_dequantize_midpoint_two_levels():
    cfg = QuantizerConfig(10, 2)  # centroids [0, 5]
    out = soft_dequantize(np.array([2.5]), cfg)
    assert np.allclose(out, 2.5)


def test_dequantize_no_hardness_parameter():
    # unit weighting: dequantization is soft quantization at sharpness 1
    cfg = QuantizerConfig(10, 2)
    z = np.array([-1.0, 3.3, 4.9, 11.0])
    assert np.array_equal(soft_dequantize(z, cfg), soft_quantize(z, cfg, 1.0))
