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
                    snr_db: Db, sigma_l: float, error_seed: int,
                    channel_seed: int, message_indices
                    ) -> tuple[Ciphertext, np.ndarray, np.ndarray]:
    """Carry (B, k) quantized latents through encryption, channel and
    decryption: the ciphertext, its soft-demodulated estimate c_hat and the
    noisy plaintext decrypted from c_hat, one row per message.

    Row i uses the error triple and channel stream of ``message_indices[i]``,
    so a row's output does not depend on the batch it travels in.
    +inf dB short-circuits the modem with its exact noiseless limit.
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
    repeat.
    """
    if not snr_grid_db:
        raise ValueError("SNR grid must be non-empty")
    records = []
    if not images:
        return records
    h, w, c = spec.input_shape
    batch = np.stack(images)
    if batch.shape[1:] != (h, w, c):
        raise ValueError(f"image shape {batch.shape[1:]} != codec {spec.input_shape}")
    n = len(images)
    z, _ = codec.encode(batch.reshape(n, -1), spec, params)
    z_bar = hard_quantize(z, qcfg)
    p = keys.params.p
    report_ms = min(h, w) >= MS_SSIM_MIN_SIDE
    for g, snr_db in enumerate(snr_grid_db):
        messages = g * n + np.arange(n)
        ct, c_hat, z_prime = transmit_latent(z_bar, keys, cons, snr_db, sigma_l,
                                             error_seed, channel_seed, messages)
        exact_plain = decrypt(ct, keys)  # the crypto noise column's reference
        x_hats, _ = codec.decode(soft_dequantize(z_prime, qcfg), spec, params)
        for i, (x, x_hat) in enumerate(zip(images, x_hats.reshape(n, h, w, c))):
            records.append(TransmissionRecord(
                image_index=i,
                message_index=int(messages[i]),
                snr_db=snr_db,
                rho=spec.rho,
                mse=metrics.mse(x, x_hat),
                psnr=metrics.psnr(x, x_hat),
                ssim=metrics.ssim(x, x_hat),
                ms_ssim=metrics.ms_ssim(x, x_hat) if report_ms else None,
                crypto_noise_std=float(np.std(centered(exact_plain[i] - z_bar[i], p))),
                channel_noise_std=float(np.std(c_hat[i] - ct.c[i])),
                compound_noise_std=float(np.std(centered(z_prime[i] - z_bar[i], p))),
            ))
    return records
