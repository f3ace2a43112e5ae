import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from securejscc import modem
from securejscc.modem import (GAP, Constellation, build_constellation,
                              channel_noise, modulate, noise_variance, receive,
                              soft_demodulate)
from securejscc.rng import normal_rows, stream


# -- dense oracles: every symbol against every point -------------------------


def _point_distances_sq(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    dre = y.real[:, None] - points.real[None, :]
    dim = y.imag[:, None] - points.imag[None, :]
    return dre * dre + dim * dim


def _block_symbols(p: int) -> int:
    """Symbols per block: the largest power of two, at least 4, whose
    block x p distance matrix fits in 2^18 elements."""
    return max(4, 1 << (((1 << 18) // p).bit_length() - 1))


def dense_soft_demodulate(y_hat: np.ndarray, cons: Constellation, sigma2: float,
                          sigma_l: float = 5.0) -> np.ndarray:
    """Softmax over the likelihoods of all p points, on a k x p matrix."""
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


@pytest.mark.parametrize("power", [0.0, -1.0, math.nan])
def test_constellation_rejects_non_positive_power(power):
    with pytest.raises(ValueError, match="target_power must be positive"):
        build_constellation(16, power)


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


def awgn(y: np.ndarray, sigma2: float, rngs) -> np.ndarray:
    """The channel on any streams, one per row of ``y``: row i gets the
    noise :func:`channel_noise` draws from ``rngs[i]``, its real parts, then
    its imaginary parts."""
    assert len(rngs) == len(y), "one stream per row"
    n = normal_rows(rngs, (2, *np.shape(y)[1:]))
    return modem.awgn(y, np.sqrt(np.divide(sigma2, 2.0)) * (n[:, 0] + 1j * n[:, 1]))


def receive_drawn(c, cons, snr_db, sigma_l, seed, message_indices) -> np.ndarray:
    """:func:`receive` on the channel draws of ``message_indices``."""
    k = np.shape(c)[-1]
    return receive(c, cons, *channel_noise(cons, snr_db, k, seed, message_indices),
                   sigma_l)


def awgn_one(y: np.ndarray, sigma2: float, rng) -> np.ndarray:
    """:func:`awgn` on one message ``y``: its real, then its imaginary noise
    drawn from ``rng``."""
    return awgn(y[None], sigma2, [rng])[0]


def test_channel_model_sigma2():
    assert abs(noise_variance(10.0, 1.0) - 0.1) < 1e-12
    assert abs(noise_variance(0.0, 2.5) - 2.5) < 1e-12
    assert noise_variance(math.inf, 1.0) == 0.0
    # the SNR range ends where the variance leaves float64's normal range
    assert noise_variance(-3000.0, 1.0) == 1e300
    assert noise_variance(3000.0, 1.0) == 10.0 ** -300


@pytest.mark.parametrize("snr_db", [-math.inf, math.nan, -4000.0, 3100.0, 3300.0])
def test_only_plus_infinity_is_noiseless(snr_db):
    # -inf dB is the noisiest channel there is, not a noiseless one; past
    # float64's range the variance overflows, is subnormal or underflows to 0
    with pytest.raises(ValueError, match=f"^SNR must be finite or \\+inf dB.*got {snr_db} dB"):
        noise_variance(snr_db, 1.0)


def test_zero_noise_identity():
    y = stream(3).standard_normal(100) + 1j * stream(4).standard_normal(100)
    assert np.array_equal(awgn_one(y, noise_variance(math.inf, 1.0), stream(5)), y)
    c = stream(6).integers(0, 16, size=(3, 8))
    c_hat = receive_drawn(c, build_constellation(16, 1.0), math.inf, 5.0, 7, [0, 1, 2])
    assert c_hat.dtype == np.float64
    assert np.array_equal(c_hat, c)


def test_noise_power_calibration():
    y = np.zeros(100_000, dtype=complex)
    noisy = awgn_one(y, 0.1, stream(6))
    assert abs(np.mean(np.abs(noisy) ** 2) / 0.1 - 1.0) < 0.03


def test_empirical_snr_estimate():
    cons = build_constellation(4093, 1.0)
    values = stream(7).integers(0, 4093, size=100_000)
    y = modulate(values, cons)
    y_hat = awgn_one(y, 10 ** (-5 / 10), stream(8))
    n = y_hat - y
    snr_est = 10 * math.log10(np.mean(np.abs(y) ** 2) / np.mean(np.abs(n) ** 2))
    assert abs(snr_est - 5.0) < 0.2


def test_channel_additivity_and_stream_independence():
    y1 = stream(9).standard_normal(1000) + 0j
    y2 = stream(10).standard_normal(1000) + 0j
    assert np.array_equal(awgn_one(y1 + y2, 0.0, stream(11)), y1 + y2)
    n1 = awgn_one(np.zeros(100_000, dtype=complex), 1.0, stream(12))
    n2 = awgn_one(np.zeros(100_000, dtype=complex), 1.0, stream(13))
    r = np.corrcoef(n1.real, n2.real)[0, 1]
    assert abs(r) < 0.01


def test_channel_rejects_nonfinite():
    with pytest.raises(ValueError):
        awgn_one(np.array([np.inf + 0j]), 0.1, stream(0))


def test_channel_draws_each_row_from_its_stream():
    # message i draws its real, then its imaginary parts from its own stream;
    # a +inf dB row draws nothing
    sigma2, noise = channel_noise(build_constellation(16, 1.0), [5.0, math.inf, 5.0],
                                  50, 15, [2, 0, 1])
    assert sigma2.tolist() == [noise_variance(5.0, 1.0), 0.0, noise_variance(5.0, 1.0)]
    s = math.sqrt(sigma2[0] / 2.0)
    for row, index in ((0, 2), (2, 1)):
        rng = stream(15, index)
        re, im = rng.standard_normal(50), rng.standard_normal(50)
        assert np.array_equal(noise[row], s * (re + 1j * im))
    assert not noise[1].any()
    # one noise row for a batch would give every row the same noise
    with pytest.raises(ValueError, match="one noise entry per symbol"):
        modem.awgn(np.zeros((3, 50)), noise[:1])


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
    y_hat = awgn_one(modulate(values, cons), 0.05, stream(17))
    sigma2 = 0.05
    vec = soft_demodulate(y_hat, cons, sigma2, 5.0)
    scalar = np.array([soft_symbol_estimate(likelihoods(y, cons, sigma2), 5.0)
                       for y in y_hat])
    assert np.allclose(vec, scalar, atol=1e-9)


def test_soft_demodulate_output_in_value_range():
    cons = build_constellation(4093, 1.0)
    y_hat = awgn_one(modulate(stream(18).integers(0, 4093, 500), cons), 1.0,
                     stream(19))
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
        y_hat = awgn_one(y, sigma2, stream(21))
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
    # a sharpness past float64 would turn the window widths into nan
    with pytest.raises(ValueError, match=r"sigma_l / \(pi sigma2\) overflows"):
        soft_demodulate(np.array([0j]), cons, 1e-300, 1e10)


def test_soft_demodulate_rejects_nonfinite():
    cons = build_constellation(16, 1.0)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 0.0)):
        with pytest.raises(ValueError):
            soft_demodulate(np.array([0.1 + 0.2j, bad]), cons, 0.1, 5.0)


# -- separable, windowed demodulator against the dense oracle ----------------


def _gap_crossings_db(cons: Constellation, sigma_l: float = 5.0) -> list[float]:
    """SNRs at which the demodulator's choice of width flips for some symbol.

    A symbol is windowed when its peak score, taken at its nearest grid
    point, exceeds GAP. The peak of a symbol on a grid point is ``c``, which
    equals GAP at the first SNR returned; below it every symbol takes the
    whole grid. The peak of a symbol at the corner of a grid cell is
    ``c exp(-spacing^2 / (2 sigma2))``. It is largest at
    ``sigma2 = spacing^2 / 2`` and crosses GAP once below that point and once
    above it (the other two SNRs). Between them every symbol within half a
    spacing of a retained point is windowed; outside them a symbol near the
    corner of a cell takes the whole grid.
    """
    spacing = cons.levels[1] - cons.levels[0]
    crossings = [-10.0 * math.log10(sigma_l / (math.pi * GAP) / cons.avg_power)]

    def excess(snr_db):
        sigma2 = noise_variance(snr_db, cons.avg_power)
        c = sigma_l / (math.pi * sigma2)
        return c * math.exp(-spacing * spacing / (2.0 * sigma2)) - GAP

    top = -10.0 * math.log10(spacing * spacing / 2.0 / cons.avg_power)
    assert excess(top) > 0 > excess(-5.0) and excess(100.0) < 0
    for lo, hi in ((-5.0, top), (100.0, top)):  # excess(lo) < 0 < excess(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
        crossings.append(0.5 * (lo + hi))
    return crossings


def _received(cons: Constellation, sigma2: float, seed: int) -> np.ndarray:
    """Noisy symbols, symbols off the grid and symbols next to the points
    dropped from the square grid (or next to its last points)."""
    rng = stream(seed)
    p, m = len(cons.points), len(cons.levels)
    edge = cons.levels[-1] + (cons.levels[1] - cons.levels[0])
    noisy = awgn_one(modulate(rng.integers(0, p, 200), cons), sigma2, rng)
    off = (rng.uniform(-3.0, 3.0, 40) + 1j * rng.uniform(-3.0, 3.0, 40)) * edge
    dropped = np.arange(p, m * m) if p < m * m else np.arange(p - 3, p)
    centres = cons.levels[dropped % m] + 1j * cons.levels[dropped // m]
    jitter = rng.uniform(-0.6, 0.6, (2, len(centres))) * (edge - cons.levels[-1])
    near = centres + jitter[0] + 1j * jitter[1]
    return np.concatenate([noisy, off, near, [edge * (50 + 50j)]])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 16, 251, 257, 4093, 4096]),
       st.floats(-5.0, 50.0), st.integers(0, 2**32 - 1))
# c = sigma_l / (pi sigma2) <= GAP: the whole grid, with and without a dropped corner
@example(p=4, snr_db=10.0, seed=1)
@example(p=251, snr_db=10.0, seed=2)
@example(p=4096, snr_db=10.0, seed=3)
def test_soft_demodulate_matches_dense_oracle(p, snr_db, seed):
    cons = build_constellation(p, 1.0)
    sigma2 = noise_variance(snr_db, cons.avg_power)
    y_hat = _received(cons, sigma2, seed)
    got = soft_demodulate(y_hat, cons, sigma2, 5.0)
    assert np.max(np.abs(got - dense_soft_demodulate(y_hat, cons, sigma2, 5.0))) <= 1e-9


@pytest.mark.parametrize("p", [251, 257, 4093, 4096])
def test_soft_demodulate_matches_dense_oracle_at_window_thresholds(p):
    # one SNR on each side of each SNR at which a width flips
    cons = build_constellation(p, 1.0)
    for crossing in _gap_crossings_db(cons):
        for snr_db in (crossing - 0.01, crossing + 0.01):
            sigma2 = noise_variance(snr_db, cons.avg_power)
            y_hat = _received(cons, sigma2, 77)
            got = soft_demodulate(y_hat, cons, sigma2, 5.0)
            assert np.max(np.abs(got - dense_soft_demodulate(y_hat, cons, sigma2))) <= 1e-9


@pytest.mark.parametrize("p", [4, 251, 4093, 4096])
@pytest.mark.parametrize("k", [1, 16, 31, 63, 64, 256, 257])
def test_soft_demodulate_rows_equal_single_messages(k, p):
    # a symbol's output depends on that symbol alone, not on its batch: the
    # moment pass is one BLAS product per block whose output rows are single
    # window rows, and every other sum runs within one symbol
    cons = build_constellation(p, 1.0)
    values = stream(22).integers(0, p, size=(5, k))
    for snr_db in (0.0, 15.0, 20.0):
        sigma2 = noise_variance(snr_db, cons.avg_power)
        y_hat = awgn(modulate(values, cons), sigma2,
                     [stream(23, row) for row in range(len(values))])
        batch = soft_demodulate(y_hat, cons, sigma2, 5.0)
        for row in range(len(values)):
            one = soft_demodulate(y_hat[row:row + 1], cons, sigma2, 5.0)
            assert np.array_equal(batch[row], one[0]), (snr_db, row)


DEMOD_DIGEST = """
import hashlib
from securejscc.modem import (awgn, build_constellation, channel_noise,
                              modulate, soft_demodulate)
from securejscc.rng import stream
digest = hashlib.sha256()
for p in (251, 4093):
    cons = build_constellation(p, 1.0)
    values = stream(26).integers(0, p, size=(40, 256))
    for snr_db in (0.0, 10.0, 15.0, 20.0, 30.0):
        sigma2, noise = channel_noise(cons, snr_db, 256, 27, range(len(values)))
        y_hat = awgn(modulate(values, cons), noise)
        digest.update(soft_demodulate(y_hat, cons, sigma2[0], 5.0).tobytes())
print(digest.hexdigest())
"""


def test_soft_demodulate_bytes_do_not_depend_on_blas_threads():
    src = Path(modem.__file__).resolve().parents[1]
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", DEMOD_DIGEST], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1


def test_receive_takes_one_snr_per_row():
    # the rows of each SNR equal a receive of those rows alone
    cons = build_constellation(251, 1.0)
    c = stream(28).integers(0, 251, size=(5, 16))
    snrs = [10.0, math.inf, 0.0, 10.0, math.inf]
    got = receive_drawn(c, cons, snrs, 5.0, 29, [4, 3, 2, 1, 0])
    for row, (snr, index) in enumerate(zip(snrs, [4, 3, 2, 1, 0])):
        one = receive_drawn(c[row:row + 1], cons, snr, 5.0, 29, [index])
        assert np.array_equal(got[row], one[0]), row
    with pytest.raises(ValueError, match="one SNR or one per row"):
        receive_drawn(c, cons, snrs[:2], 5.0, 29, range(5))


@pytest.mark.parametrize("indices, bad, fault", [
    ([3, 3], 3, "repeats"),
    # 0 and 2**64 would key the same stream: the key keeps 64 bits
    ([0, 2**64], 2**64, "is outside"),
    ([-1], -1, "is outside"),
], ids=["repeat", "wraps_onto_0", "negative"])
def test_receive_rejects_shared_channel_noise(indices, bad, fault):
    # two rows keyed alike would carry the same channel noise
    with pytest.raises(ValueError, match=f"message index {bad} {fault}"):
        channel_noise(build_constellation(17), 10.0, 4, 6, indices)


def test_receive_takes_one_noise_row_per_row():
    # noise drawn for one message cannot be spread over a batch
    cons = build_constellation(17)
    sigma2, noise = channel_noise(cons, 10.0, 4, 6, [0])
    c = np.zeros((2, 4), dtype=np.int64)
    for args in ((np.repeat(sigma2, 2), noise), (sigma2, np.repeat(noise, 2, axis=0))):
        with pytest.raises(ValueError, match="one noise row and one variance each"):
            receive(c, cons, *args, 5.0)


def _scored_widths(monkeypatch, y_hat, cons, sigma2):
    """Run the demodulator and return the window width each symbol got."""
    estimate = modem._estimate
    widths = []

    def spy(y, col_lo, row_lo, width, *args):
        widths.extend([width] * len(y))
        return estimate(y, col_lo, row_lo, width, *args)

    with monkeypatch.context() as patch:
        patch.setattr(modem, "_estimate", spy)
        soft_demodulate(y_hat, cons, sigma2, 5.0)
    assert len(widths) == len(y_hat)
    return np.array(widths)


def test_soft_demodulate_window_rule(monkeypatch):
    cons = build_constellation(4093, 1.0)
    m = len(cons.levels)
    spacing = cons.levels[1] - cons.levels[0]
    rng = stream(24)
    # 45 dB: every noisy symbol is windowed, on at most log2(m) + 1 widths
    sigma2 = noise_variance(45.0, cons.avg_power)
    y_hat = awgn_one(modulate(rng.integers(0, 4093, 2000), cons), sigma2, rng)
    widths = _scored_widths(monkeypatch, y_hat, cons, sigma2)
    assert np.all(widths < m)
    assert len(set(widths.tolist())) <= math.log2(m) + 1
    # 20 dB: symbols up to one spacing outside the grid edge are windowed
    sigma2 = noise_variance(20.0, cons.avg_power)
    # rows (and columns) 0 .. m-2: the right edge's point in row m-1 is dropped
    rows = cons.levels[rng.integers(0, m - 1, 300)]
    out = spacing * rng.uniform(0.0, 1.0, 300)
    y_hat = np.concatenate([cons.levels[0] - out[:100] + 1j * rows[:100],
                            cons.levels[-1] + out[100:200] + 1j * rows[100:200],
                            rows[200:] + 1j * (cons.levels[0] - out[200:])])
    assert np.all(_scored_widths(monkeypatch, y_hat, cons, sigma2) < m)
    # 0 dB: no score exceeds GAP, so every symbol takes the whole grid
    sigma2 = noise_variance(0.0, cons.avg_power)
    y_hat = _received(cons, sigma2, 25)
    assert np.all(_scored_widths(monkeypatch, y_hat, cons, sigma2) == m)
