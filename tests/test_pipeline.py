import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from securejscc import codec, metrics, pipeline
from securejscc.codec import CodecSpec
from securejscc.datasets import DatasetSpec, synthesize_dataset
from securejscc.lwe import (LweParams, centered, decrypt, derive_error_rows, encrypt, keygen,
                            pad)
from securejscc.modem import build_constellation
from securejscc.pipeline import (CSV_COLUMNS, CSV_SCHEMA_VERSION, SWEEP_DTYPE,
                                 draw_messages, records_to_csv, sweep,
                                 transmit_latent)
from securejscc.quantizer import QuantizerConfig, hard_quantize, soft_dequantize
from securejscc.rng import stream

LWE = LweParams(p=4093, n1=192, n2=192, sigma_s=8.87, k=64)
SPEC = CodecSpec(kind="identity", input_shape=(8, 8, 1), k=64,
                 latent_scale=4093 / 256.0)


def transmit_drawn(z_bar, keys, cons, snr_db, sigma_l, error_seed, channel_seed,
                   message_indices):
    """:func:`transmit_latent` on the draws of ``message_indices``."""
    draws = draw_messages(keys, cons, error_seed, channel_seed, message_indices, snr_db)
    return transmit_latent(z_bar, draws, keys, cons, sigma_l)


@pytest.fixture(scope="module")
def setup():
    keys = keygen(LWE, 1, 2)
    qcfg = QuantizerConfig(4093, 16)
    cons = build_constellation(4093, 1.0)
    images = synthesize_dataset(DatasetSpec("blob", 6, 8, 8, 1), 5)
    return keys, qcfg, cons, images


def _send(images, setup, snr_grid_db):
    keys, qcfg, cons, _ = setup
    return sweep(images, SPEC, {}, keys, qcfg, cons, snr_grid_db, 5.0, 3, 4)


def assert_tables_equal(a, b):
    """Column by column; a NaN (ms_ssim not reported) equals a NaN, which a
    structured ``==`` does not grant."""
    assert a.dtype == b.dtype
    for name in a.dtype.names:
        assert np.array_equal(a[name], b[name], equal_nan=True), name


def test_zero_noise_zero_errors_is_quantization_only(setup, zero_error_rows):
    keys, qcfg, cons, images = setup
    x = images[0]
    z, _ = codec.encode(x.reshape(1, -1), SPEC, {})
    z_bar = hard_quantize(z, qcfg)
    ct, c_hat = transmit_drawn(z_bar, keys, cons, math.inf, 5.0, 3, 4, [0])
    z_prime = decrypt(c_hat, ct.d, keys)
    assert np.array_equal(z_prime, z_bar)
    x_hat, _ = codec.decode(soft_dequantize(z_prime, qcfg), SPEC, {})
    x_hat = x_hat.reshape(x.shape)
    spacing_px = (4093 / 16) / 2 * (256 / 4093)
    in_span = z[0] <= qcfg.centroids[-1] + (4093 / 16) / 2
    err = np.abs(x_hat - x).reshape(-1)
    assert np.all(err[in_span] <= spacing_px + 1e-9)
    [rec] = _send([x], setup, [math.inf])
    assert rec.mse == metrics.mse(x[None], x_hat[None])[0]
    assert rec.crypto_noise_std == 0.0
    assert rec.channel_noise_std == 0.0
    assert rec.compound_noise_std == 0.0


def test_transmit_deterministic(setup):
    keys, qcfg, cons, _ = setup
    zbar = stream(52).integers(0, 4093, size=(2, 64))
    (ct_a, a), (ct_b, b) = (transmit_drawn(zbar, keys, cons, 10.0, 5.0, 3, 4,
                                            [7, 9]) for _ in range(2))
    for x, y in zip([ct_a.c, ct_a.d, a, decrypt(a, ct_a.d, keys)],
                    [ct_b.c, ct_b.d, b, decrypt(b, ct_b.d, keys)]):
        assert np.array_equal(x, y)


def test_distinct_message_indices_differ(setup):
    # one image at two grid points of the same SNR travels as messages 0, 1
    a, b = _send([setup[3][1]], setup, [10.0, 10.0])
    assert (a.message_index, b.message_index) == (0, 1)
    assert a.mse != b.mse


def test_rho_reported_exactly(setup):
    [rec] = _send([setup[3][0]], setup, [10.0])
    assert rec.rho == 64 / (8 * 8 * 1) == 1.0


def test_shape_mismatch_rejected(setup):
    with pytest.raises(ValueError):
        _send([np.zeros((4, 4, 1))], setup, [10.0])


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


def test_single_point_sweep_equals_single_image_sweeps(setup):
    images = setup[3]
    recs = _send(images[:2], setup, [10.0])
    assert_tables_equal(recs[:1], _send(images[:1], setup, [10.0]))
    # alone, image 1 travels as message 1 at the second grid point
    alone = _send(images[1:2], setup, [0.0, 10.0])[1:]
    alone["image_index"] = 1
    assert_tables_equal(recs[1:], alone)


def test_average_power_is_a_rescaling_of_sigma_l(setup):
    # the points scale with sqrt(P) and sigma2 with P, so the likelihoods do
    # not depend on P and the demodulator's sharpness is sigma_l / P: there
    # is no separate average-power setting
    keys, qcfg, _, images = setup
    grid = [0.0, 10.0, 20.0, math.inf]

    def send(power, sigma_l):
        return sweep(images, SPEC, {}, keys, qcfg, build_constellation(4093, power),
                     grid, sigma_l, 3, 4)

    base = send(1.0, 5.0)
    # at 4P the amplitudes double, a power of two: every float op scales exactly
    assert_tables_equal(send(4.0, 20.0), base)
    # at 2P they scale by sqrt(2), which rounds in the last bits
    scaled = send(2.0, 10.0)
    for name in base.dtype.names:
        assert np.allclose(scaled[name], base[name], rtol=1e-12, atol=0,
                           equal_nan=True), name
    assert not np.array_equal(send(2.0, 5.0)["mse"], base["mse"])


def test_empty_dataset_header_only(setup):
    keys, qcfg, cons, _ = setup
    csv = records_to_csv(sweep([], SPEC, {}, keys, qcfg, cons, [10.0], 5.0, 3, 4))
    assert csv == ",".join(CSV_COLUMNS) + "\n"


def test_empty_grid_rejected(setup):
    keys, qcfg, cons, images = setup
    with pytest.raises(ValueError):
        sweep(images, SPEC, {}, keys, qcfg, cons, [], 5.0, 3, 4)


@pytest.mark.parametrize("error_seed, channel_seed, first, second", [
    (3, 3, "error_seed", "channel_seed"),
    (3, 3 + 2**64, "error_seed", "channel_seed"),
    (1, 4, "error_seed", "keys.key_seed"),
    (2 - 2**64, 4, "error_seed", "keys.lattice_seed"),
    (3, 1 + 2**64, "channel_seed", "keys.key_seed"),
    (3, 2, "channel_seed", "keys.lattice_seed"),
], ids=["equal", "equal_mod_2**64", "error_key", "error_lattice", "channel_key",
        "channel_lattice"])
def test_error_and_channel_seeds_must_differ(setup, error_seed, channel_seed, first, second):
    # one seed would key a message's channel noise on its error triple's
    # stream, or either on the key's streams (keys = keygen(LWE, 1, 2))
    keys, qcfg, cons, images = setup
    message = re.escape(f"seeds '{first}' and '{second}' are equal mod 2**64")
    with pytest.raises(ValueError, match=message):
        draw_messages(keys, cons, error_seed, channel_seed, [0], 10.0)
    with pytest.raises(ValueError, match=message):
        sweep(images, SPEC, {}, keys, qcfg, cons, [10.0], 5.0, error_seed, channel_seed)


def test_an_error_seed_equal_to_the_public_lattice_seed_is_refused(setup):
    # the public key carries lattice_seed: under that error seed anyone
    # rebuilds message 0's pad from the public key and strips it off
    keys, qcfg, cons, images = setup
    public = keys.public()
    z_bar = hard_quantize(images[0].reshape(1, -1), qcfg)
    sent = encrypt(z_bar, pad(keys, derive_error_rows(keys.lattice_seed, [0], LWE)), LWE)
    rebuilt = pad(public, derive_error_rows(public.lattice_seed, [0], LWE))
    assert np.array_equal(np.mod(sent.c - rebuilt.c, LWE.p), z_bar)
    message = re.escape("seeds 'error_seed' and 'keys.lattice_seed' are equal mod 2**64")
    with pytest.raises(ValueError, match=message):
        draw_messages(keys, cons, public.lattice_seed, 4, [0], 10.0)
    with pytest.raises(ValueError, match=message):
        sweep(images, SPEC, {}, keys, qcfg, cons, [10.0], 5.0, public.lattice_seed, 4)


@pytest.mark.parametrize("qcfg, cons, message", [
    (QuantizerConfig(251, 16), None, "quantizer modulus 251 is not the key modulus 4093"),
    (None, build_constellation(4096, 1.0),
     "constellation modulus 4096 is not the key modulus 4093"),
    (None, build_constellation(251, 1.0),
     "constellation modulus 251 is not the key modulus 4093"),
])
def test_sweep_rejects_another_modulus(setup, qcfg, cons, message):
    # a 251-point constellation would fail deep in modulate, the other two
    # would run: each is named before any message is sent
    keys, key_qcfg, key_cons, images = setup
    with pytest.raises(ValueError, match=message):
        sweep(images, SPEC, {}, keys, qcfg or key_qcfg, cons or key_cons, [10.0],
              5.0, 3, 4)


def test_noise_accounting_additive(setup):
    # compound variance splits into crypto + demodulation contributions
    keys, qcfg, cons, images = setup
    zbar = np.stack([qcfg.centroids[stream(50, m).integers(0, 16, size=64)]
                     for m in range(30)])
    for snr in (5.0, 15.0):
        ct, c_hat = transmit_drawn(zbar, keys, cons, snr, 5.0, 3, 4, np.arange(30))
        z_prime = decrypt(c_hat, ct.d, keys)
        crypto_v = np.var(centered(decrypt(ct.c, ct.d, keys) - zbar, 4093), axis=1)
        chan_v = np.var(c_hat - ct.c, axis=1)
        comp_v = np.var(centered(z_prime - zbar, 4093), axis=1)
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
    def outputs(rows, message_indices):
        ct, c_hat = transmit_drawn(rows, keys, cons, 10.0, 5.0, 3, 4,
                                    message_indices)
        return {"c": ct.c, "d": ct.d, "exact_plain": decrypt(ct.c, ct.d, keys),
                "c_hat": c_hat, "z_prime": decrypt(c_hat, ct.d, keys)}

    batch = outputs(zbar, indices)
    for row, index in enumerate(indices):
        one = outputs(zbar[row:row + 1], [index])
        for field, value in batch.items():
            assert np.array_equal(value[row], one[field][0]), field


def test_rows_sliced_from_drawn_messages_equal_their_own_draws(setup):
    # a sweep chunk of three images at 0 dB, +inf dB and 15 dB: rows sliced
    # from its draws, +inf rows (no channel draw) among them, carry the bits
    # of their messages drawn alone
    keys, _, cons, _ = setup
    messages = np.array([0, 1, 2, 6, 7, 8, 12, 13, 14])
    snrs = np.repeat([0.0, math.inf, 15.0], 3)
    zbar = stream(53).integers(0, 4093, size=(len(messages), LWE.k))
    block = draw_messages(keys, cons, 3, 4, messages, snrs)
    for rows in (slice(2, 7), np.array([4, 0, 8])):
        ct, c_hat = transmit_latent(zbar[rows], block[rows], keys, cons, 5.0)
        own_ct, own_c_hat = transmit_drawn(zbar[rows], keys, cons, snrs[rows], 5.0,
                                           3, 4, messages[rows])
        for got, own in ((ct.c, own_ct.c), (ct.d, own_ct.d), (c_hat, own_c_hat)):
            assert np.array_equal(got, own)


def per_snr_sweep(images, spec, params, keys, qcfg, cons, snr_grid_db,
                  sigma_l, error_seed, channel_seed):
    """:func:`sweep` as one chain call per SNR, each image scored alone: the
    oracle for the chunked sweep."""
    n, p = len(images), keys.params.p
    z, _ = codec.encode(np.stack(images).reshape(n, -1), spec, params)
    z_bar = hard_quantize(z, qcfg)
    rows = []
    for g, snr_db in enumerate(snr_grid_db):
        messages = g * n + np.arange(n)
        ct, c_hat = transmit_drawn(z_bar, keys, cons, snr_db, sigma_l,
                                    error_seed, channel_seed, messages)
        exact_plain, z_prime = decrypt(ct.c, ct.d, keys), decrypt(c_hat, ct.d, keys)
        x_hats, _ = codec.decode(soft_dequantize(z_prime, qcfg), spec, params)
        for i, (x, x_hat) in enumerate(zip(images, x_hats.reshape(n, *spec.input_shape))):
            scores = [float(score(x[None], x_hat[None])[0])
                      for score in (metrics.mse, metrics.psnr, metrics.ssim)]
            rows.append((
                i, messages[i], snr_db, spec.rho, *scores, math.nan,
                np.std(centered(exact_plain[i] - z_bar[i], p)),
                np.std(c_hat[i] - ct.c[i]),
                np.std(centered(z_prime[i] - z_bar[i], p))))
    return np.rec.fromrecords(rows, dtype=SWEEP_DTYPE)


def test_chunked_sweep_equals_per_snr_chain_calls(setup, monkeypatch):
    # 7 images x 3 SNRs: chunks of 2 images at every SNR, at most
    # max(7, 3) messages a call, the last one ragged; +inf rows share a
    # chain call with noisy rows
    keys, qcfg, cons, _ = setup
    images = synthesize_dataset(DatasetSpec("blob", 7, 8, 8, 1), 6)
    grid = [0.0, math.inf, 15.0]
    args = (SPEC, {}, keys, qcfg, cons, grid, 5.0, 3, 4)
    oracle = per_snr_sweep(images, *args)
    rows = []
    send = pipeline.transmit_latent

    def spy(z_bar, *rest):
        rows.append(len(z_bar))
        return send(z_bar, *rest)

    monkeypatch.setattr(pipeline, "transmit_latent", spy)
    assert_tables_equal(sweep(images, *args), oracle)
    assert rows == [6, 6, 6, 3]


def test_sweep_decrypts_once_per_chain_call(setup, monkeypatch):
    # the exact plaintext (crypto noise column) and the noisy one come from
    # one decryption, one lattice product, of the stacked ciphertexts
    keys, qcfg, cons, images = setup
    calls = []

    def counting(c, d, key):
        calls.append(c.shape)
        return decrypt(c, d, key)
    monkeypatch.setattr(pipeline, "decrypt", counting)
    sweep(images, SPEC, {}, keys, qcfg, cons, [5.0, math.inf], 5.0, 3, 4)
    assert calls == [(2, 2 * 3, 64)] * 2  # 3 images at 2 SNRs per chain call


def test_ms_ssim_omitted_for_small_images(setup):
    table = _send([setup[3][0]], setup, [10.0])
    assert np.isnan(table["ms_ssim"]).all()
    image, mean, std = (row.split(",") for row in
                        records_to_csv(table).strip().split("\n")[1:])
    column = CSV_COLUMNS.index("ms_ssim")
    assert image[column] == mean[column] == std[column] == ""


def test_int_snr_grid_prints_like_a_float_grid(setup):
    images = setup[3][:2]
    csv = records_to_csv(_send(images, setup, [0, 10]))
    assert csv == records_to_csv(_send(images, setup, [0.0, 10.0]))
    assert "1,mean,,,0.000000," in csv


def as_records(table):
    """The table as the per-message records the list writer took: Python
    values, ``ms_ssim`` None where it is not reported."""
    return [SimpleNamespace(**{name: None if name == "ms_ssim" and math.isnan(v) else v
                               for name, v in zip(table.dtype.names, row)})
            for row in table.tolist()]


def list_records_to_csv(records, fmt):
    """The list-based writer that the column writer replaced, kept as its
    oracle: it filters every record once per SNR and reduces one list of
    Python floats per (column, SNR). ``fmt`` formats a finite float."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, int):
            return str(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return fmt(value)

    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join([str(CSV_SCHEMA_VERSION), "image"]
                              + [cell(getattr(r, name)) for name in CSV_COLUMNS[2:]]))
    for snr in sorted({r.snr_db for r in records}):
        group = [r for r in records if r.snr_db == snr]
        for kind, reducer in (("mean", np.mean), ("std", np.std)):
            row = [str(CSV_SCHEMA_VERSION), kind, "", "", cell(snr)]
            for name in CSV_COLUMNS[5:]:
                vals = [getattr(r, name) for r in group]
                vals = [v for v in vals if v is not None and math.isfinite(v)]
                row.append(cell(float(reducer(vals))) if vals else "")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def wide_table(setup):
    # 129 images per SNR, one past numpy's 128-element pairwise-sum block;
    # the 10 dB group holds two grid points
    keys, qcfg, cons, _ = setup
    images = synthesize_dataset(DatasetSpec("blob", 129, 8, 8, 1), 7)
    return sweep(images, SPEC, {}, keys, qcfg, cons, [10.0, 0.0, 10.0, math.inf],
                 5.0, 3, 4)


def ms_ssim_table(setup):
    # 64 x 64 images: ms_ssim is reported
    lwe = LweParams(p=4093, n1=16, n2=16, sigma_s=8.87, k=64 * 64)
    spec = CodecSpec(kind="identity", input_shape=(64, 64, 1), k=64 * 64,
                     latent_scale=4093 / 256.0)
    images = synthesize_dataset(DatasetSpec("blob", 3, 64, 64, 1), 8)
    _, qcfg, cons, _ = setup
    table = sweep(images, spec, {}, keygen(lwe, 1, 2), qcfg, cons,
                  [20.0, math.inf], 5.0, 3, 4)
    assert np.isfinite(table["ms_ssim"]).all()
    return table


@pytest.mark.parametrize("make_table", [wide_table, ms_ssim_table])
def test_column_writer_matches_list_writer_at_full_precision(setup, monkeypatch,
                                                             make_table):
    table = make_table(setup)
    # perfect reconstructions at +inf dB: an infinite psnr leaves its
    # group's reduction, as ms_ssim's NaN does
    psnr = table["psnr"]
    psnr[np.flatnonzero(table["snr_db"] == math.inf)[::2]] = math.inf
    records = as_records(table)
    assert records_to_csv(table) == list_records_to_csv(records, "{:.6f}".format)
    # .6f hides last-bit drift in the reductions; repr shows every bit
    monkeypatch.setattr(pipeline, "_fmt", lambda v: "" if math.isnan(v) else repr(v))
    assert records_to_csv(table) == list_records_to_csv(records, repr)
