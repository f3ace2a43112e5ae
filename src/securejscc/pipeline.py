"""End-to-end transmission chain and SNR sweeps.

A batch of messages runs encode -> hard quantize -> encrypt -> modulate ->
AWGN -> soft demodulate -> noisy decrypt -> soft dequantize -> decode.
Every random draw comes from a stream keyed by the message index, so a
(config, seeds) pair pins the output byte for byte and a message's output
does not depend on the batch it travels in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec, metrics
from .lwe import (Ciphertext, KeyPair, centered, decrypt, decrypt_noisy,
                  derive_error_rows, encrypt)
from .modem import Constellation, Db, receive
from .quantizer import QuantizerConfig, hard_quantize, soft_dequantize

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("schema_version", "row_kind", "image_index", "message_index",
               "snr_db", "rho", "mse", "psnr", "ssim", "ms_ssim",
               "crypto_noise_std", "channel_noise_std", "compound_noise_std")
MS_SSIM_MIN_SIDE = 64  # below this the multi-scale metric is not reported


@dataclass(frozen=True)
class TransmissionRecord:
    image_index: int
    message_index: int
    snr_db: float
    rho: float
    mse: float
    psnr: float
    ssim: float
    ms_ssim: float | None
    crypto_noise_std: float
    channel_noise_std: float
    compound_noise_std: float


def transmit_latent(z_bar: np.ndarray, keys: KeyPair, cons: Constellation,
                    snr_db: Db | np.ndarray, sigma_l: float, error_seed: int,
                    channel_seed: int, message_indices
                    ) -> tuple[Ciphertext, np.ndarray, np.ndarray]:
    """Carry (B, k) quantized latents through encryption, channel and
    decryption: the ciphertext, its soft-demodulated estimate c_hat and the
    noisy plaintext decrypted from c_hat, one row per message.

    ``snr_db`` is one SNR for every row or one per row (see
    :func:`~securejscc.modem.receive`). Row i uses the error triple and
    channel stream of ``message_indices[i]``, so a row's output does not
    depend on the batch it travels in. +inf dB short-circuits the modem
    with its exact noiseless limit.
    """
    ct = encrypt(z_bar, keys, derive_error_rows(error_seed, message_indices,
                                                keys.params))
    c_hat = receive(ct.c, cons, snr_db, sigma_l, channel_seed, message_indices)
    return ct, c_hat, decrypt_noisy(c_hat, ct.d, keys)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6f}"


def records_to_csv(records: list[TransmissionRecord]) -> str:
    """Fixed-order CSV: per-image rows, then mean/std rows per SNR."""
    # past the version and row kind every column is a record field; the
    # aggregate rows leave the two indices blank and reduce rho onward
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join([str(CSV_SCHEMA_VERSION), "image"]
                              + [_fmt(getattr(r, name)) for name in CSV_COLUMNS[2:]]))
    for snr in sorted({r.snr_db for r in records}):
        group = [r for r in records if r.snr_db == snr]
        for kind, reducer in (("mean", np.mean), ("std", np.std)):
            row = [str(CSV_SCHEMA_VERSION), kind, "", "", _fmt(snr)]
            for name in CSV_COLUMNS[5:]:
                vals = [getattr(r, name) for r in group]
                vals = [v for v in vals if v is not None and math.isfinite(v)]
                row.append(_fmt(float(reducer(vals))) if vals else "")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep(images: list[np.ndarray], spec: codec.CodecSpec, params: dict,
          keys: KeyPair, qcfg: QuantizerConfig, cons: Constellation,
          snr_grid_db: list[float], sigma_l: float, error_seed: int,
          channel_seed: int) -> list[TransmissionRecord]:
    """Transmit every image at every SNR and score each reconstruction.

    The images are encoded and quantized once. At the g-th SNR image i
    travels as message ``g * len(images) + i``, so message indices never
    repeat, and the records come in message order. A chunk of images
    travels at every SNR in one chain call of at most
    ``max(len(images), len(snr_grid_db))`` messages.
    """
    if not snr_grid_db:
        raise ValueError("SNR grid must be non-empty")
    if not images:
        return []
    h, w, c = spec.input_shape
    batch = np.stack(images)
    if batch.shape[1:] != (h, w, c):
        raise ValueError(f"image shape {batch.shape[1:]} != codec {spec.input_shape}")
    n, n_snr = len(images), len(snr_grid_db)
    z, _ = codec.encode(batch.reshape(n, -1), spec, params)
    z_bar = hard_quantize(z, qcfg)
    p = keys.params.p
    report_ms = min(h, w) >= MS_SSIM_MIN_SIDE
    snrs = np.asarray(snr_grid_db, dtype=np.float64)
    per_call = max(1, n // n_snr)  # images per chain call
    records = [None] * (n * n_snr)
    for lo in range(0, n, per_call):
        chunk = np.arange(lo, min(lo + per_call, n))
        g = np.repeat(np.arange(n_snr), len(chunk))
        i = np.tile(chunk, n_snr)
        messages = g * n + i
        ct, c_hat, z_prime = transmit_latent(z_bar[i], keys, cons, snrs[g], sigma_l,
                                             error_seed, channel_seed, messages)
        exact_plain = decrypt(ct, keys)  # the crypto noise column's reference
        x_hats, _ = codec.decode(soft_dequantize(z_prime, qcfg), spec, params)
        x, x_hat = batch[i], x_hats.reshape(-1, h, w, c)
        columns = zip(
            metrics.mse(x, x_hat).tolist(), metrics.psnr(x, x_hat).tolist(),
            metrics.ssim(x, x_hat).tolist(),
            metrics.ms_ssim(x, x_hat).tolist() if report_ms else [None] * len(i),
            np.std(centered(exact_plain - z_bar[i], p), axis=1).tolist(),
            np.std(c_hat - ct.c, axis=1).tolist(),
            np.std(centered(z_prime - z_bar[i], p), axis=1).tolist())
        for row, (mse, psnr, ssim, ms_ssim, crypto, channel, compound) in enumerate(columns):
            records[messages[row]] = TransmissionRecord(
                image_index=int(i[row]), message_index=int(messages[row]),
                snr_db=snr_grid_db[g[row]], rho=spec.rho, mse=mse, psnr=psnr,
                ssim=ssim, ms_ssim=ms_ssim, crypto_noise_std=crypto,
                channel_noise_std=channel, compound_noise_std=compound)
    return records
