import math

import numpy as np
import pytest

from securejscc.codec import CodecSpec
from securejscc.datasets import DatasetSpec, synthesize_dataset
from securejscc.lwe import LweParams, centered, keygen
from securejscc.modem import build_constellation
from securejscc.pipeline import (CSV_COLUMNS, records_to_csv, sweep, transmit,
                                 transmit_latent)
from securejscc.quantizer import QuantizerConfig
from securejscc.rng import stream

LWE = LweParams(p=4093, n1=192, n2=192, sigma_s=8.87, k=64)
SPEC = CodecSpec(kind="identity", input_shape=(8, 8, 1), k=64,
                 latent_scale=4093 / 256.0)


@pytest.fixture(scope="module")
def setup():
    keys = keygen(LWE, 1, 2)
    qcfg = QuantizerConfig(4093, 16)
    cons = build_constellation(4093, 1.0)
    images = synthesize_dataset(DatasetSpec("blob", 6, 8, 8, 1), 5)
    return keys, qcfg, cons, images


def test_zero_noise_zero_errors_is_quantization_only(setup, zero_error_rows):
    keys, qcfg, cons, images = setup
    x = images[0]
    x_hat, rec = transmit(x, SPEC, {}, keys, qcfg, cons, math.inf, 5.0,
                          3, 4, 0)
    spacing_px = (4093 / 16) / 2 * (256 / 4093)
    z = x.reshape(-1) * SPEC.latent_scale
    in_span = z <= qcfg.centroids[-1] + (4093 / 16) / 2
    err = np.abs(x_hat - x).reshape(-1)
    assert np.all(err[in_span] <= spacing_px + 1e-9)
    assert rec.crypto_noise_std == 0.0
    assert rec.channel_noise_std == 0.0


def test_transmit_deterministic(setup):
    keys, qcfg, cons, images = setup
    a, ra = transmit(images[1], SPEC, {}, keys, qcfg, cons, 10.0, 5.0, 3, 4, 7)
    b, rb = transmit(images[1], SPEC, {}, keys, qcfg, cons, 10.0, 5.0, 3, 4, 7)
    assert np.array_equal(a, b)
    assert ra == rb


def test_distinct_message_indices_differ(setup):
    keys, qcfg, cons, images = setup
    a, _ = transmit(images[1], SPEC, {}, keys, qcfg, cons, 10.0, 5.0, 3, 4, 7)
    b, _ = transmit(images[1], SPEC, {}, keys, qcfg, cons, 10.0, 5.0, 3, 4, 8)
    assert not np.array_equal(a, b)


def test_rho_reported_exactly(setup):
    keys, qcfg, cons, images = setup
    _, rec = transmit(images[0], SPEC, {}, keys, qcfg, cons, 10.0, 5.0, 3, 4, 0)
    assert rec.rho == 64 / (8 * 8 * 1) == 1.0


def test_shape_mismatch_rejected(setup):
    keys, qcfg, cons, _ = setup
    with pytest.raises(ValueError):
        transmit(np.zeros((4, 4, 1)), SPEC, {}, keys, qcfg, cons, 10.0, 5.0,
                 3, 4, 0)


def test_sweep_layout_and_determinism(setup):
    keys, qcfg, cons, images = setup
    grid = [0.0, 10.0]
    recs1 = sweep(images[:3], SPEC, {}, keys, qcfg, cons, grid, 5.0, 3, 4)
    recs2 = sweep(images[:3], SPEC, {}, keys, qcfg, cons, grid, 5.0, 3, 4)
    csv1, csv2 = records_to_csv(recs1), records_to_csv(recs2)
    assert csv1 == csv2  # byte identical
    assert len(recs1) == 6
    lines = csv1.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    kinds = [ln.split(",")[1] for ln in lines[1:]]
    assert kinds.count("image") == 6
    assert kinds.count("mean") == 2 and kinds.count("std") == 2
    # message indices unique across the whole sweep
    indices = [r.message_index for r in recs1]
    assert len(set(indices)) == len(indices)


def test_single_point_sweep_equals_transmit_batch(setup):
    keys, qcfg, cons, images = setup
    recs = sweep(images[:2], SPEC, {}, keys, qcfg, cons, [10.0], 5.0, 3, 4)
    for i, rec in enumerate(recs):
        _, direct = transmit(images[i], SPEC, {}, keys, qcfg, cons, 10.0, 5.0,
                             3, 4, i, image_index=i)
        assert rec == direct


def test_empty_dataset_header_only(setup):
    keys, qcfg, cons, _ = setup
    csv = records_to_csv(sweep([], SPEC, {}, keys, qcfg, cons, [10.0], 5.0, 3, 4))
    assert csv == ",".join(CSV_COLUMNS) + "\n"


def test_empty_grid_rejected(setup):
    keys, qcfg, cons, images = setup
    with pytest.raises(ValueError):
        sweep(images, SPEC, {}, keys, qcfg, cons, [], 5.0, 3, 4)


def test_noise_accounting_additive(setup):
    # compound variance splits into crypto + demodulation contributions
    keys, qcfg, cons, images = setup
    zbar = np.stack([qcfg.centroids[stream(50, m).integers(0, 16, size=64)]
                     for m in range(30)])
    for snr in (5.0, 15.0):
        tr = transmit_latent(zbar, keys, cons, 10 ** (-snr / 10), 5.0,
                             3, 4, np.arange(30))
        crypto_v = np.var(centered(tr.exact_plain - zbar, 4093), axis=1)
        chan_v = np.var(tr.c_hat - tr.c, axis=1)
        comp_v = np.var(centered(tr.z_prime - zbar, 4093), axis=1)
        total = np.mean(crypto_v) + np.mean(chan_v)
        assert abs(np.mean(comp_v) / total - 1.0) < 0.10


@pytest.mark.parametrize("k", [16, 63, 256])
def test_batched_chain_rows_equal_single_messages(k):
    # a row's output must not depend on the batch it travels in: the
    # demodulator's output for a symbol depends on that symbol alone
    params = LweParams(p=4093, n1=32, n2=32, sigma_s=8.87, k=k)
    keys = keygen(params, 1, 2)
    cons = build_constellation(4093, 1.0)
    indices = [7, 2, 11, 3]
    zbar = stream(51).integers(0, 4093, size=(len(indices), k))
    batch = transmit_latent(zbar, keys, cons, 0.1, 5.0, 3, 4, indices)
    for row, index in enumerate(indices):
        one = transmit_latent(zbar[row:row + 1], keys, cons, 0.1, 5.0, 3, 4,
                              [index])
        for field in ("z_prime", "exact_plain", "c", "c_hat"):
            assert np.array_equal(getattr(batch, field)[row],
                                  getattr(one, field)[0]), field


def test_ms_ssim_omitted_for_small_images(setup):
    keys, qcfg, cons, images = setup
    _, rec = transmit(images[0], SPEC, {}, keys, qcfg, cons, 10.0, 5.0, 3, 4, 0)
    assert rec.ms_ssim is None
    csv = records_to_csv([rec])
    row = csv.strip().split("\n")[1].split(",")
    assert row[CSV_COLUMNS.index("ms_ssim")] == ""
