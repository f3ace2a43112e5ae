import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from securejscc.datasets import DatasetSpec, synthesize_dataset
from securejscc.metrics import ms_ssim, mse, psnr, ssim
from test_datasets import STACK_CASES

images = hnp.arrays(np.float64, (6, 5, 3), elements=st.floats(0.0, 255.0))


def one(image):
    """An H x W or H x W x C image as a one-image stack."""
    image = np.asarray(image)
    return image[None, :, :, None] if image.ndim == 2 else image[None]


def single(metric, x, x_hat, **kwargs):
    """The metric's value for one image pair."""
    values = metric(one(x), one(x_hat), **kwargs)
    assert values.dtype == np.float64 and values.shape == (1,)
    return values[0]


def scalar_loop_mse(x, x_hat):
    total, count = 0.0, 0
    for a, b in zip(x.ravel(), x_hat.ravel()):
        total += (a - b) ** 2
        count += 1
    return total / count


# -- mse ---------------------------------------------------------------------


def test_mse_identical_zero():
    x = np.full((4, 4, 3), 17.0)
    assert single(mse, x, x) == 0.0


def test_mse_full_swing():
    x = np.zeros((7, 3, 2))
    assert single(mse, x, np.full((7, 3, 2), 255.0)) == 255.0 ** 2 == 65025.0


def test_mse_against_scalar_oracle():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 255, (8, 9, 3))
    y = rng.uniform(0, 255, (8, 9, 3))
    assert np.isclose(single(mse, x, y), scalar_loop_mse(x, y), rtol=1e-9)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(one(np.zeros((4, 4, 1))), one(np.zeros((4, 5, 1))))


@settings(max_examples=30, deadline=None)
@given(images, images)
def test_mse_symmetry(x, y):
    assert single(mse, x, y) == single(mse, y, x)


# -- psnr --------------------------------------------------------------------


def test_psnr_zero_db_at_full_swing():
    x = np.zeros((4, 4))
    assert single(psnr, x, np.full((4, 4), 255.0)) == 0.0


def test_psnr_reference_value():
    # mse 65.025 against peak 255 is exactly 30 dB
    x = np.zeros((1, 1))
    x_hat = np.array([[math.sqrt(65.025)]])
    assert np.isclose(single(psnr, x, x_hat), 30.0, atol=1e-12)


def test_psnr_identical_is_infinite():
    x = np.full((3, 3), 9.0)
    assert single(psnr, x, x) == math.inf


def test_psnr_strictly_decreasing_in_mse():
    x = np.zeros((10, 10))
    values = [single(psnr, x, np.full((10, 10), float(v))) for v in (1, 5, 20, 100, 255)]
    assert all(a > b for a, b in zip(values, values[1:]))


# -- ssim --------------------------------------------------------------------


def test_ssim_identical_is_one():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 255, (8, 8, 3))
    assert np.isclose(single(ssim, x, x), 1.0, atol=1e-12)


def test_ssim_constant_zero_vs_constant_peak():
    x = np.zeros((8, 8))
    x_hat = np.full((8, 8), 255.0)
    v1 = (0.01 * 255.0) ** 2
    oracle = v1 / (255.0 ** 2 + v1)  # contrast term is exactly 1 (both flat)
    got = single(ssim, x, x_hat)
    assert np.isclose(got, oracle, rtol=1e-12)
    assert abs(got - 1e-4) < 2e-6


def test_ssim_constant_shift_oracle():
    rng = np.random.default_rng(2)
    x = rng.uniform(20, 200, (8, 8))
    c = 30.0
    mu = x.mean()
    v1 = (0.01 * 255.0) ** 2
    oracle = (2 * mu * (mu + c) + v1) / (mu ** 2 + (mu + c) ** 2 + v1)
    assert np.isclose(single(ssim, x, x + c), oracle, rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(images, images)
def test_ssim_symmetry(x, y):
    assert np.isclose(single(ssim, x, y), single(ssim, y, x), rtol=1e-12)


def test_one_minus_ssim_zero_iff_factors_one():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 255, (6, 6))
    assert 1.0 - single(ssim, x, x) == pytest.approx(0.0, abs=1e-12)
    assert 1.0 - single(ssim, x, x + 5.0) > 0.0


# -- ms-ssim -----------------------------------------------------------------


def test_msssim_identical_is_one():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 255, (32, 32, 3))
    assert abs(single(ms_ssim, x, x, scales=5) - 1.0) < 1e-12


def test_msssim_single_scale_component_oracle():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 255, (16, 16))
    y = rng.uniform(0, 255, (16, 16))
    v1 = (0.01 * 255.0) ** 2
    v2 = (0.03 * 255.0) ** 2
    v3 = v2 / 2
    mu_x, mu_y = x.mean(), y.mean()
    sd_x, sd_y = x.std(), y.std()
    cov = np.mean((x - mu_x) * (y - mu_y))
    lum = (2 * mu_x * mu_y + v1) / (mu_x ** 2 + mu_y ** 2 + v1)
    con = (2 * sd_x * sd_y + v2) / (sd_x ** 2 + sd_y ** 2 + v2)
    struct = (cov + v3) / (sd_x * sd_y + v3)
    w = 0.0448  # first scale weight
    oracle = (max(lum, 0) ** w) * (max(con, 0) ** w) * (max(struct, 0) ** w)
    assert np.isclose(single(ms_ssim, x, y, scales=1), oracle, rtol=1e-12)


def test_msssim_constant_images_reduce_to_luminance():
    x = np.full((32, 32), 60.0)
    y = np.full((32, 32), 200.0)
    v1 = (0.01 * 255.0) ** 2
    lum = (2 * 60.0 * 200.0 + v1) / (60.0 ** 2 + 200.0 ** 2 + v1)
    alpha_5 = 0.1333
    assert np.isclose(single(ms_ssim, x, y, scales=5), lum ** alpha_5, rtol=1e-12)


def test_msssim_too_small_image():
    x = np.zeros((8, 8))
    with pytest.raises(ValueError):
        ms_ssim(one(x), one(x), scales=5)


def test_msssim_permutation_invariance():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 255, (16, 16))
    y = rng.uniform(0, 255, (16, 16))
    perm = rng.permutation(16 * 16)
    xp = x.ravel()[perm].reshape(16, 16)
    yp = y.ravel()[perm].reshape(16, 16)
    # global statistics are blind to a simultaneous pixel permutation
    assert np.isclose(single(ssim, x, y), single(ssim, xp, yp), rtol=1e-12)
    assert np.isclose(single(ms_ssim, x, y, scales=1),
                      single(ms_ssim, xp, yp, scales=1), rtol=1e-12)


# -- stacks ------------------------------------------------------------------


def per_image_ssim(x, x_hat):
    """SSIM of one HxWxC image from numpy scalar statistics per channel:
    the oracle for the stacked form."""
    v1 = (0.01 * 255.0) ** 2
    v2 = (0.03 * 255.0) ** 2
    vals = []
    for c in range(x.shape[2]):
        a, b = x[:, :, c], x_hat[:, :, c]
        mu_a, mu_b, sa, sb = a.mean(), b.mean(), a.std(), b.std()
        luminance = (2.0 * mu_a * mu_b + v1) / (mu_a ** 2 + mu_b ** 2 + v1)
        contrast = (2.0 * sa * sb + v2) / (sa ** 2 + sb ** 2 + v2)
        vals.append(luminance * contrast)
    return float(np.mean(vals))


@pytest.mark.parametrize("h, w, c, count, seed", STACK_CASES)
def test_stacked_metrics_match_per_image_loop(h, w, c, count, seed):
    x = np.stack(synthesize_dataset(DatasetSpec("blob", count, h, w, c), seed))
    y = np.clip(x + np.random.default_rng(seed).normal(0.0, 20.0, x.shape), 0.0, 255.0)
    y[0] = x[0]  # one identical pair: an infinite PSNR
    metrics = [mse, psnr, ssim] + [ms_ssim] * (min(h, w) >= 16)
    for metric in metrics:
        stacked = metric(x, y)
        assert stacked.shape == (count,)
        assert stacked.tolist() == [single(metric, a, b) for a, b in zip(x, y)], metric
    assert ssim(x, y).tolist() == [per_image_ssim(a, b) for a, b in zip(x, y)]
    assert psnr(x, y)[0] == math.inf


def per_image_ms_ssim(x, x_hat, scales=5):
    """MS-SSIM of one HxWxC image, one channel plane at a time with scalar
    terms: the oracle for the stacked form."""
    v1 = (0.01 * 255.0) ** 2
    v2 = (0.03 * 255.0) ** 2
    v3 = v2 / 2
    weights = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)[:scales]
    vals = []
    for c in range(x.shape[2]):
        a, b = x[:, :, c], x_hat[:, :, c]
        score = 1.0
        for j, weight in enumerate(weights):
            sa, sb = a.std(), b.std()
            contrast = (2.0 * sa * sb + v2) / (sa ** 2 + sb ** 2 + v2)
            cov = float(np.mean((a - a.mean()) * (b - b.mean())))
            structure = (cov + v3) / (sa * sb + v3)
            score *= max(contrast, 0.0) ** weight
            score *= max(structure, 0.0) ** weight
            if j == scales - 1:
                mu_a, mu_b = a.mean(), b.mean()
                luminance = (2.0 * mu_a * mu_b + v1) / (mu_a ** 2 + mu_b ** 2 + v1)
                score *= max(luminance, 0.0) ** weight
            else:  # 2x2 mean pooling, odd trailing rows/cols dropped
                h, w = a.shape[0] // 2 * 2, a.shape[1] // 2 * 2
                a, b = (0.25 * (s[0:h:2, 0:w:2] + s[1:h:2, 0:w:2] + s[0:h:2, 1:w:2]
                                + s[1:h:2, 1:w:2]) for s in (a, b))
        vals.append(score)
    return float(np.mean(vals))


@pytest.mark.parametrize("shape, scales", [((16, 16, 1), 5), ((33, 21, 3), 4),
                                           ((64, 64, 3), 5), ((9, 7, 2), 1)])
def test_stacked_msssim_matches_per_image_oracle(shape, scales):
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 255, (6, *shape))
    y = np.clip(x + rng.normal(0.0, 40.0, x.shape), 0.0, 255.0)
    y[1] = 255.0 - x[1]  # anticorrelated: a clipped structure term
    y[2] = 90.0  # a flat reconstruction
    got = ms_ssim(x, y, scales=scales)
    assert got.dtype == np.float64 and got.shape == (6,)
    oracle = [per_image_ms_ssim(a, b, scales) for a, b in zip(x, y)]
    assert np.allclose(got, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("metric", [mse, psnr, ssim, ms_ssim])
@pytest.mark.parametrize("shape", [(8, 8), (8, 8, 1), (1, 2, 8, 8, 1)])
def test_metrics_take_stacks_only(metric, shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        metric(np.zeros(shape), np.zeros(shape))


@pytest.mark.parametrize("scales", [0, 6])
def test_msssim_scales_out_of_range(scales):
    x = np.zeros((1, 64, 64, 1))
    with pytest.raises(ValueError, match=r"scales must be in \[1, 5\]"):
        ms_ssim(x, x, scales=scales)


@pytest.mark.parametrize("metric", [mse, psnr, ssim, ms_ssim])
def test_metrics_of_an_empty_stack_are_empty(metric):
    x = np.zeros((0, 16, 16, 3))
    values = metric(x, x)
    assert values.dtype == np.float64 and values.shape == (0,)
