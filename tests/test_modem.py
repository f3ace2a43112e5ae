import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from securejscc.modem import (Constellation, awgn, build_constellation,
                              modulate, nearest_point_demodulate,
                              noise_variance, receive, soft_demodulate)
from securejscc.rng import stream


# -- scalar oracle: one received value at a time -----------------------------


def likelihoods(y_hat_i: complex, cons: Constellation, sigma2: float) -> np.ndarray:
    """Complex Gaussian density of one received value under every point."""
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    d2 = np.abs(y_hat_i - cons.points) ** 2
    return np.exp(-d2 / sigma2) / (math.pi * sigma2)


def soft_symbol_estimate(likelihood_row: np.ndarray, sigma_l: float = 5.0) -> float:
    """Softmax(sigma_l * likelihoods)-weighted mean of the integer values."""
    if not sigma_l > 0:
        raise ValueError(f"sigma_l must be positive, got {sigma_l}")
    scores = sigma_l * np.asarray(likelihood_row, dtype=np.float64)
    w = np.exp(scores - scores.max())
    w /= w.sum()
    return float(w @ np.arange(len(w)))


# -- constellation -----------------------------------------------------------


def test_power_normalization_exact():
    for p in (4, 16, 4093, 4096):
        cons = build_constellation(p, 1.0)
        assert abs(np.mean(np.abs(cons.points) ** 2) - 1.0) < 1e-9
        assert len(cons.points) == p
    cons = build_constellation(4093, 2.5)
    assert abs(np.mean(np.abs(cons.points) ** 2) - 2.5) < 1e-9 * 2.5


def test_reference_modulus_drops_three_grid_points():
    cons = build_constellation(4093, 1.0)
    full = build_constellation(4096, 1.0)
    assert len(full.points) - len(cons.points) == 3


def test_qpsk_closed_form():
    cons = build_constellation(4, 1.0)
    a = 1.0 / math.sqrt(2.0)
    expected = {(round(s * a, 12), round(t * a, 12))
                for s in (-1, 1) for t in (-1, 1)}
    got = {(round(float(z.real), 12), round(float(z.imag), 12))
           for z in cons.points}
    assert got == expected


def test_points_distinct():
    cons = build_constellation(4093, 1.0)
    assert len(set(cons.points.tolist())) == 4093


def test_order_bound():
    with pytest.raises(ValueError):
        build_constellation(4097, 1.0)
    with pytest.raises(ValueError):
        build_constellation(0, 1.0)


# -- modulation --------------------------------------------------------------


def test_modulate_is_index_lookup():
    cons = build_constellation(4093, 1.0)
    assert modulate(np.array([0]), cons)[0] == cons.points[0]
    assert modulate(np.array([4092]), cons)[0] == cons.points[-1]


def test_modulate_range_check():
    cons = build_constellation(16, 1.0)
    with pytest.raises(ValueError):
        modulate(np.array([16]), cons)
    with pytest.raises(ValueError):
        modulate(np.array([-1]), cons)


def test_noiseless_round_trip():
    cons = build_constellation(4093, 1.0)
    values = stream(1).integers(0, 4093, size=10_000)
    y = modulate(values, cons)
    assert np.array_equal(nearest_point_demodulate(y, cons), values)


def test_uniform_symbols_hit_average_power():
    cons = build_constellation(4093, 1.0)
    values = stream(2).integers(0, 4093, size=100_000)
    y = modulate(values, cons)
    assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 0.02


# -- channel -----------------------------------------------------------------


def test_channel_model_sigma2():
    assert abs(noise_variance(10.0, 1.0) - 0.1) < 1e-12
    assert abs(noise_variance(0.0, 2.5) - 2.5) < 1e-12
    assert noise_variance(math.inf, 1.0) == 0.0


def test_zero_noise_identity():
    y = stream(3).standard_normal(100) + 1j * stream(4).standard_normal(100)
    assert np.array_equal(awgn(y, noise_variance(math.inf, 1.0), stream(5)), y)
    c = stream(6).integers(0, 16, size=(3, 8))
    c_hat = receive(c, None, 0.0, 5.0, 7, [0, 1, 2])
    assert c_hat.dtype == np.float64
    assert np.array_equal(c_hat, c)


def test_noise_power_calibration():
    y = np.zeros(100_000, dtype=complex)
    noisy = awgn(y, 0.1, stream(6))
    assert abs(np.mean(np.abs(noisy) ** 2) / 0.1 - 1.0) < 0.03


def test_empirical_snr_estimate():
    cons = build_constellation(4093, 1.0)
    values = stream(7).integers(0, 4093, size=100_000)
    y = modulate(values, cons)
    y_hat = awgn(y, 10 ** (-5 / 10), stream(8))
    n = y_hat - y
    snr_est = 10 * math.log10(np.mean(np.abs(y) ** 2) / np.mean(np.abs(n) ** 2))
    assert abs(snr_est - 5.0) < 0.2


def test_channel_additivity_and_stream_independence():
    y1 = stream(9).standard_normal(1000) + 0j
    y2 = stream(10).standard_normal(1000) + 0j
    assert np.array_equal(awgn(y1 + y2, 0.0, stream(11)), y1 + y2)
    n1 = awgn(np.zeros(100_000, dtype=complex), 1.0, stream(12))
    n2 = awgn(np.zeros(100_000, dtype=complex), 1.0, stream(13))
    r = np.corrcoef(n1.real, n2.real)[0, 1]
    assert abs(r) < 0.01


def test_channel_rejects_nonfinite():
    with pytest.raises(ValueError):
        awgn(np.array([np.inf + 0j]), 0.1, stream(0))


# -- likelihoods -------------------------------------------------------------


def test_likelihood_peaks_at_transmitted_point():
    cons = build_constellation(64, 1.0)
    row = likelihoods(cons.points[17], cons, 0.05)
    assert np.argmax(row) == 17
    assert np.all(row >= 0)


def test_likelihood_equidistant_points_equal():
    cons = build_constellation(4, 1.0)
    row = likelihoods(0.0 + 0.0j, cons, 0.3)
    assert np.allclose(row, row[0])


def test_likelihood_ratio_closed_form():
    cons = build_constellation(64, 1.0)
    rng = stream(14)
    for _ in range(20):
        y = complex(rng.normal(), rng.normal())
        sigma2 = float(rng.uniform(0.05, 2.0))
        row = likelihoods(y, cons, sigma2)
        j1, j2 = rng.integers(0, 64, size=2)
        expected = math.exp((abs(y - cons.points[j2]) ** 2
                             - abs(y - cons.points[j1]) ** 2) / sigma2)
        if row[j2] > 0:
            assert np.isclose(row[j1] / row[j2], expected, rtol=1e-9)


def test_likelihood_rejects_bad_sigma2():
    cons = build_constellation(4, 1.0)
    with pytest.raises(ValueError):
        likelihoods(0j, cons, 0.0)


# -- soft demodulation -------------------------------------------------------


def test_soft_demodulate_saturates_at_high_snr():
    cons = build_constellation(4093, 1.0)
    values = stream(15).integers(0, 4093, size=256)
    y = modulate(values, cons)
    c_hat = soft_demodulate(y, cons, 1e-6, 5.0)
    assert np.all(np.abs(c_hat - values) < 1e-3)


def test_soft_demodulate_uniform_likelihoods_hit_midpoint():
    p = 101
    est = soft_symbol_estimate(np.full(p, 0.37), 5.0)
    assert abs(est - (p - 1) / 2) < 1e-9


def test_soft_demodulate_matches_scalar_path():
    cons = build_constellation(257, 1.0)
    values = stream(16).integers(0, 257, size=64)
    y_hat = awgn(modulate(values, cons), 0.05, stream(17))
    sigma2 = 0.05
    vec = soft_demodulate(y_hat, cons, sigma2, 5.0)
    scalar = np.array([soft_symbol_estimate(likelihoods(y, cons, sigma2), 5.0)
                       for y in y_hat])
    assert np.allclose(vec, scalar, atol=1e-9)


def test_soft_demodulate_output_in_value_range():
    cons = build_constellation(4093, 1.0)
    y_hat = awgn(modulate(stream(18).integers(0, 4093, 500), cons), 1.0, stream(19))
    c_hat = soft_demodulate(y_hat, cons, 1.0, 5.0)
    assert np.all(c_hat >= 0.0)
    assert np.all(c_hat <= 4092.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 5.0), min_size=2, max_size=64),
       st.floats(-3.0, 3.0))
def test_softmax_shift_invariance(row, shift):
    row = np.array(row)
    a = soft_symbol_estimate(row, 5.0)
    b = soft_symbol_estimate(row + shift, 5.0)
    assert abs(a - b) < 1e-12


def test_monotone_fidelity_in_snr():
    cons = build_constellation(4093, 1.0)
    values = stream(20).integers(0, 4093, size=2000)
    y = modulate(values, cons)
    prev = math.inf
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
        sigma2 = 10 ** (-snr_db / 10)
        y_hat = awgn(y, sigma2, stream(21))
        n_c = soft_demodulate(y_hat, cons, sigma2, 5.0) - values
        mean_abs = float(np.mean(np.abs(n_c)))
        assert mean_abs <= prev
        prev = mean_abs


def test_soft_demodulate_rejects_bad_sigma():
    cons = build_constellation(16, 1.0)
    with pytest.raises(ValueError):
        soft_demodulate(np.array([0j]), cons, 0.0, 5.0)
    with pytest.raises(ValueError):
        soft_demodulate(np.array([0j]), cons, 0.1, 0.0)
