"""End-to-end transmission chain and SNR sweeps.

A batch of messages runs encode -> hard quantize -> encrypt -> modulate ->
AWGN -> soft demodulate -> noisy decrypt -> soft dequantize -> decode.
Every random draw comes from a stream keyed by the message index, so a
(config, seeds) pair pins the output byte for byte and a message's output
does not depend on the batch it travels in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import codec, metrics
from .lwe import (Ciphertext, KeyPair, PublicKey, centered, decrypt, derive_error_rows,
                  encrypt, pad)
from .modem import Constellation, Db, channel_noise, receive
from .quantizer import QuantizerConfig, hard_quantize, soft_dequantize
from .rng import check_distinct

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("schema_version", "row_kind", "image_index", "message_index",
               "snr_db", "rho", "mse", "psnr", "ssim", "ms_ssim",
               "crypto_noise_std", "channel_noise_std", "compound_noise_std")
# a sweep's table: one column per CSV field past the row kind
SWEEP_DTYPE = np.dtype([(name, np.int64 if name.endswith("_index") else np.float64)
                        for name in CSV_COLUMNS[2:]])
MS_SSIM_MIN_SIDE = 64  # below this the multi-scale metric is not reported (NaN)


@dataclass(frozen=True)
class MessageDraws:
    """The randomness of messages ``indices``; ``draws[rows]`` selects rows."""

    indices: np.ndarray  # (B,) message indices
    pad: Ciphertext  # the encryption of the zero plaintext: (B, k) c, (B, n2) d
    sigma2: np.ndarray  # (B,) channel noise variance, 0 at +inf dB
    noise: np.ndarray  # (B, k) complex channel noise

    def __getitem__(self, rows) -> MessageDraws:
        return MessageDraws(self.indices[rows],
                            Ciphertext(self.pad.c[rows], self.pad.d[rows]),
                            self.sigma2[rows], self.noise[rows])


def draw_messages(keys: KeyPair, cons: Constellation, error_seed: int,
                  channel_seed: int, message_indices,
                  snr_db: Db | np.ndarray) -> MessageDraws:
    """The draws of messages ``message_indices`` at ``snr_db`` (see
    :func:`~securejscc.modem.channel_noise`): message i's error triple and
    channel noise come from its index's streams, whatever batch it is drawn
    in. Its seeds and the key's are under the seed rule, ``rng.check_distinct``."""
    check_distinct({"error_seed": error_seed, "channel_seed": channel_seed,
                    "keys.key_seed": keys.key_seed, "keys.lattice_seed": keys.lattice_seed})
    errors = derive_error_rows(error_seed, message_indices, keys.params)
    sigma2, noise = channel_noise(cons, snr_db, keys.params.k, channel_seed,
                                  message_indices)
    return MessageDraws(np.asarray(message_indices), pad(keys, errors), sigma2, noise)


def transmit_latent(z_bar: np.ndarray, draws: MessageDraws, keys: PublicKey,
                    cons: Constellation, sigma_l: float
                    ) -> tuple[Ciphertext, np.ndarray]:
    """Carry (B, k) quantized latents through encryption and the channel on
    their messages' draws: the ciphertext and its soft-demodulated estimate
    c_hat, which the receiver decrypts with its KeyPair: ``decrypt(c_hat, ct.d, ...)``."""
    ct = encrypt(z_bar, draws.pad, keys.params)
    return ct, receive(ct.c, cons, draws.sigma2, draws.noise, sigma_l)


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
        draws = draw_messages(keys, cons, error_seed, channel_seed, messages, snrs[g])
        ct, c_hat = transmit_latent(z_bar[i], draws, keys, cons, sigma_l)
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
