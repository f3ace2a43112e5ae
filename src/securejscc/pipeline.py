"""End-to-end transmission chain and SNR sweeps.

A batch of messages runs encode -> hard quantize -> encrypt -> modulate ->
AWGN -> soft demodulate -> noisy decrypt -> soft dequantize -> decode.
Every random draw comes from a stream keyed by the message index, so a
(config, seeds) pair pins the output byte for byte and a message's output
does not depend on the batch it travels in.
"""

from __future__ import annotations

import numpy as np

from . import codec, metrics
from .lwe import Ciphertext, KeyPair, centered, decrypt, derive_error_rows, encrypt
from .modem import Constellation, Db, receive
from .quantizer import QuantizerConfig, hard_quantize, soft_dequantize
from .rng import seed_word

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("schema_version", "row_kind", "image_index", "message_index",
               "snr_db", "rho", "mse", "psnr", "ssim", "ms_ssim",
               "crypto_noise_std", "channel_noise_std", "compound_noise_std")
# a sweep's table: one column per CSV field past the row kind
SWEEP_DTYPE = np.dtype([(name, np.int64 if name.endswith("_index") else np.float64)
                        for name in CSV_COLUMNS[2:]])
MS_SSIM_MIN_SIDE = 64  # below this the multi-scale metric is not reported (NaN)


def transmit_latent(z_bar: np.ndarray, keys: KeyPair, cons: Constellation,
                    snr_db: Db | np.ndarray, sigma_l: float, error_seed: int,
                    channel_seed: int, message_indices
                    ) -> tuple[Ciphertext, np.ndarray]:
    """Carry (B, k) quantized latents through encryption and the channel:
    the ciphertext and its soft-demodulated estimate c_hat, one row per
    message. The receiver decrypts c_hat with ``decrypt(c_hat, ct.d, keys)``.

    ``snr_db`` is one SNR for every row or one per row (see
    :func:`~securejscc.modem.receive`). Row i uses the error triple and
    channel stream of ``message_indices[i]``, so a row's output does not
    depend on the batch it travels in. +inf dB short-circuits the modem
    with its exact noiseless limit. The two seeds must differ mod 2**64, or
    a message's channel noise would replay the draws of its error triple.
    """
    if seed_word(error_seed) == seed_word(channel_seed):
        raise ValueError(f"error seed {error_seed} and channel seed {channel_seed} are "
                         f"equal mod 2**64, so they would draw the same random streams")
    ct = encrypt(z_bar, keys, derive_error_rows(error_seed, message_indices, keys.params))
    return ct, receive(ct.c, cons, snr_db, sigma_l, channel_seed, message_indices)


def _fmt(value: float) -> str:
    return f"{value:.6f}" if value == value else ""  # NaN: not reported


def records_to_csv(table: np.ndarray) -> str:
    """Fixed-order CSV of a :func:`sweep` table: per-image rows, then
    mean/std rows per SNR."""
    columns = [table[name] for name in CSV_COLUMNS[2:]]  # each field read once
    lines = [",".join(CSV_COLUMNS)]
    cells = [list(map(str if col.dtype.kind == "i" else _fmt, col.tolist()))
             for col in columns]
    lines += [f"{CSV_SCHEMA_VERSION},image," + ",".join(row) for row in zip(*cells)]
    # the aggregate rows leave the two indices blank and reduce rho onward
    snr_db, data = columns[2], np.stack(columns[3:])
    for snr in sorted(set(snr_db.tolist())):  # np.unique's first call costs ~1.6 MB RSS
        # a masked view is F-ordered; a C-contiguous block reduces each column
        # along its own row, in the order a 1-D reduction of it sums
        block = np.ascontiguousarray(data[:, snr_db == snr])
        finite = np.isfinite(block)
        partial = np.flatnonzero(~finite.all(axis=1))  # psnr at +inf dB, ms_ssim
        for kind, reducer in (("mean", np.mean), ("std", np.std)):
            with np.errstate(invalid="ignore"):  # inf - inf in a partial row
                values = reducer(block, axis=1)
            for j in partial:  # over the finite entries alone, NaN if none
                kept = block[j, finite[j]]
                values[j] = reducer(kept) if kept.size else np.nan
            lines.append(f"{CSV_SCHEMA_VERSION},{kind},,," + ",".join(
                map(_fmt, [snr, *values.tolist()])))
    return "\n".join(lines) + "\n"


def sweep(images: list[np.ndarray], spec: codec.CodecSpec, params: dict,
          keys: KeyPair, qcfg: QuantizerConfig, cons: Constellation,
          snr_grid_db: list[float], sigma_l: float, error_seed: int,
          channel_seed: int) -> np.recarray:
    """Transmit every image at every SNR and score each reconstruction.

    The images are encoded and quantized once. At the g-th SNR image i
    travels as message ``g * len(images) + i``, so message indices never
    repeat. The result is one :data:`SWEEP_DTYPE` row per message, in
    message order; ``ms_ssim`` is NaN for images smaller than
    ``MS_SSIM_MIN_SIDE``. A chunk of images travels at every SNR in one
    chain call of at most ``max(len(images), len(snr_grid_db))`` messages.
    """
    if not snr_grid_db:
        raise ValueError("SNR grid must be non-empty")
    keys.params.check_moduli(quantizer=qcfg.p, constellation=len(cons.points))
    n, n_snr = len(images), len(snr_grid_db)
    table = np.recarray(n * n_snr, dtype=SWEEP_DTYPE)
    if not images:
        return table
    h, w, c = spec.input_shape
    batch = np.stack(images)
    if batch.shape[1:] != (h, w, c):
        raise ValueError(f"image shape {batch.shape[1:]} != codec {spec.input_shape}")
    z, _ = codec.encode(batch.reshape(n, -1), spec, params)
    z_bar = hard_quantize(z, qcfg)
    p = keys.params.p
    report_ms = min(h, w) >= MS_SSIM_MIN_SIDE
    snrs = np.asarray(snr_grid_db, dtype=np.float64)
    per_call = max(1, n // n_snr)  # images per chain call
    for lo in range(0, n, per_call):
        chunk = np.arange(lo, min(lo + per_call, n))
        g = np.repeat(np.arange(n_snr), len(chunk))
        i = np.tile(chunk, n_snr)
        messages = g * n + i
        ct, c_hat = transmit_latent(z_bar[i], keys, cons, snrs[g], sigma_l,
                                    error_seed, channel_seed, messages)
        # the exact plaintext (crypto noise reference) and the noisy one: one product
        exact_plain, z_prime = decrypt(np.stack([ct.c, c_hat]), ct.d, keys)
        x_hats, _ = codec.decode(soft_dequantize(z_prime, qcfg), spec, params)
        x, x_hat = batch[i], x_hats.reshape(-1, h, w, c)
        columns = (
            i, messages, snrs[g], spec.rho, metrics.mse(x, x_hat),
            metrics.psnr(x, x_hat), metrics.ssim(x, x_hat),
            metrics.ms_ssim(x, x_hat) if report_ms else np.nan,
            np.std(centered(exact_plain - z_bar[i], p), axis=1),
            np.std(c_hat - ct.c, axis=1),
            np.std(centered(z_prime - z_bar[i], p), axis=1))
        for name, column in zip(SWEEP_DTYPE.names, columns):
            table[name][messages] = column
    return table
