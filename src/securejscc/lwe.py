"""Lattice encryption over Z_p.

Implements discrete Gaussian sampling, key generation, public-key
encryption and both exact and noisy-ciphertext decryption. Decryption is
additive: it returns the plaintext plus a small structured residual
(``S^T e2 + U^T e1 + e3``), which the surrounding transmission chain
treats as one more noise source.

Representation conventions: public matrices and ciphertexts are stored as
least non-negative residues in ``[0, p)``; the secret ``S`` and decryption
residuals are handled as centered residues in ``(-p/2, p/2]`` so their
noise statistics are meaningful.

Simulation grade only: no constant-time hardening, no side-channel
resistance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import stream

KEY_FILE_VERSION = 1
# float64 holds every integer of magnitude up to 2**53 exactly
EXACT_FLOAT_LIMIT = 2 ** 53
# numpy's ziggurat normal never returns a value beyond 13.72 standard
# deviations: its tail draw is bounded by a 53-bit uniform
SAMPLER_TAIL_SIGMAS = 13.72


@dataclass(frozen=True)
class LweParams:
    """Modulus, lattice dimensions, sampler width and plaintext length."""

    p: int
    n1: int
    n2: int
    sigma_s: float
    k: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"modulus p must be >= 2, got {self.p}")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"lattice dimensions must be >= 1, got {self.n1}x{self.n2}")
        if not self.sigma_s > 0:
            raise ValueError(f"sigma_s must be positive, got {self.sigma_s}")
        if self.k < 1:
            raise ValueError(f"plaintext length k must be >= 1, got {self.k}")
        if max(self.n1, self.n2) * (self.p - 1) * self.tail >= 2 ** 63:
            raise ValueError(
                f"lattice products could overflow int64: max(n1, n2) * (p - 1) * "
                f"{self.tail} (sampler tail) >= 2**63 for p={self.p}, "
                f"{self.n1}x{self.n2}, sigma_s={self.sigma_s}")

    @property
    def tail(self) -> int:
        """The largest magnitude :func:`sample_discrete_gaussian` can return:
        ``SAMPLER_TAIL_SIGMAS`` standard deviations of its normal, rounded up."""
        return math.ceil(SAMPLER_TAIL_SIGMAS * self.sigma_s / math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class PublicKey:
    """Encryption-side key material: no secret fields."""

    params: LweParams
    B: np.ndarray  # n1 x k, residues in [0, p)
    A: np.ndarray  # n1 x n2, residues in [0, p)
    lattice_seed: int


@dataclass(frozen=True)
class KeyPair:
    """Full key material held by the legitimate receiver."""

    params: LweParams
    S: np.ndarray  # n2 x k, centered (signed) residues
    B: np.ndarray  # n1 x k, residues in [0, p)
    A: np.ndarray  # n1 x n2, residues in [0, p)
    key_seed: int
    lattice_seed: int

    def public(self) -> PublicKey:
        return PublicKey(params=self.params, B=self.B, A=self.A,
                         lattice_seed=self.lattice_seed)


@dataclass(frozen=True)
class ErrorTriple:
    """Encryption noise (e1, e2, e3), discrete Gaussian, one row per message."""

    e1: np.ndarray  # (..., n1)
    e2: np.ndarray  # (..., n2)
    e3: np.ndarray  # (..., k)


@dataclass(frozen=True)
class Ciphertext:
    """Encrypted messages: c carries the plaintext, d is plaintext-free."""

    c: np.ndarray  # (..., k), residues in [0, p)
    d: np.ndarray  # (..., n2), residues in [0, p)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (keeps zero mean)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _gaussian_rows(sigma_s: float, rngs, shape) -> np.ndarray:
    """One ``shape`` block of rounded N(0, sigma_s^2 / 2pi) draws per stream.

    Each stream is drawn once and the whole stack is rounded once; the
    draws are the ones ``rng.normal(0, sigma_s / sqrt(2 pi), shape)`` makes.
    """
    x = np.empty((len(rngs), *shape))
    for row, rng in zip(x, rngs):
        rng.standard_normal(out=row)
    x *= sigma_s / math.sqrt(2.0 * math.pi)
    return round_half_away(x).astype(np.int64)


def sample_discrete_gaussian(sigma_s: float, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` integers: continuous N(0, sigma_s^2 / 2pi), rounded.

    The rounding adds roughly 1/12 to the continuous variance, so the
    samples have variance close to ``sigma_s**2 / (2*pi) + 1/12``.
    """
    if not sigma_s > 0:
        raise ValueError(f"sigma_s must be positive, got {sigma_s}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return _gaussian_rows(sigma_s, [rng], (count,))[0]


def _max_abs(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min())) if x.size else 0


def lattice_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` of integer arrays, exact, as int64.

    numpy never sends an integer matmul to BLAS. Every partial sum of the
    product is an integer of magnitude at most ``n * max|x| * max|y|``, n
    the contracted length; below 2**53 float64 holds each one exactly, so
    the float64 product is the exact one whatever order, blocking or
    thread count BLAS sums in. Past that bound the product stays in int64.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.shape[-1] * _max_abs(x) * _max_abs(y) < EXACT_FLOAT_LIMIT:
        return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)
    return x.astype(np.int64, copy=False) @ y.astype(np.int64, copy=False)


def public_matrix(U: np.ndarray, A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """B = (U - A @ S) mod p."""
    return (U - lattice_product(A, S)) % p


def keygen_stack(params: LweParams, key_seeds,
                 lattice_seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(S, B, A)`` of ``keygen(params, key_seeds[i], lattice_seeds[i])``
    for every i, stacked along a leading axis: B is one stacked product."""
    n1, n2, k = params.n1, params.n2, params.k
    SU = _gaussian_rows(params.sigma_s, [stream(s) for s in key_seeds],
                        (n2 + n1, k))
    A = np.empty((len(lattice_seeds), n1, n2), dtype=np.int64)
    for row, seed in zip(A, lattice_seeds):
        row[...] = stream(seed).integers(0, params.p, size=(n1, n2), dtype=np.int64)
    S, U = SU[:, :n2], SU[:, n2:]
    return S, public_matrix(U, A, S, params.p), A


def keygen(params: LweParams, key_seed: int, lattice_seed: int) -> KeyPair:
    """Generate a key pair deterministically from two seeds.

    ``S`` then ``U`` are drawn from the key_seed stream (discrete Gaussian);
    ``A`` is drawn uniformly over ``[0, p)`` from the lattice_seed stream.
    """
    S, B, A = (m[0] for m in keygen_stack(params, [key_seed], [lattice_seed]))
    # S is a view into the S-and-U draw: copy it so U can be freed
    return KeyPair(params=params, S=S.copy(), B=B, A=A,
                   key_seed=int(key_seed), lattice_seed=int(lattice_seed))


def error_rows(rngs, params: LweParams) -> ErrorTriple:
    """One (e1, e2, e3) row per stream, drawn in that order in one call."""
    e = _gaussian_rows(params.sigma_s, rngs, (params.n1 + params.n2 + params.k,))
    n1, n12 = params.n1, params.n1 + params.n2
    return ErrorTriple(e1=e[:, :n1], e2=e[:, n1:n12], e3=e[:, n12:])


def derive_error_rows(shared_error_seed: int, message_indices,
                      params: LweParams) -> ErrorTriple:
    """Derive the (e1, e2, e3) triples of ``message_indices`` as rows.

    Row i comes from the stream keyed by ``(shared_error_seed,
    message_indices[i])``; reusing a triple across messages leaks plaintext
    differences (the ciphertext is affine in the plaintext), so every
    message must use a fresh index.
    """
    indices = [int(i) for i in message_indices]
    if any(i < 0 for i in indices):
        raise ValueError(f"message indices must be >= 0, got {min(indices)}")
    return error_rows([stream(shared_error_seed, i) for i in indices], params)


def derive_errors(shared_error_seed: int, message_index: int,
                  params: LweParams) -> ErrorTriple:
    """The (e1, e2, e3) triple of one message: row 0 of :func:`derive_error_rows`."""
    rows = derive_error_rows(shared_error_seed, [message_index], params)
    return ErrorTriple(e1=rows.e1[0], e2=rows.e2[0], e3=rows.e3[0])


def encrypt(plaintext: np.ndarray, key: KeyPair | PublicKey,
            errors: ErrorTriple) -> Ciphertext:
    """Encrypt plaintext rows in Z_p^k with the public part of ``key``.

    c = (e1 B + e3 + plaintext) mod p
    d = (e1 A + e2) mod p

    ``plaintext`` is one message (k,) or a batch (B, k); ``errors`` must
    carry one triple per message. ``d`` does not depend on the plaintext,
    so a receiver that shares the error seed can precompute it. ``key`` may
    also stack one key per message, B (T, n1, k) and A (T, n1, n2) from
    :func:`keygen_stack`, for (T, 1, k) plaintext rows and (T, 1, .) errors.
    """
    p = key.params.p
    z = np.asarray(plaintext, dtype=np.int64)
    if z.shape[-1:] != (key.params.k,):
        raise ValueError(f"plaintext must have length k={key.params.k}, got shape {z.shape}")
    if np.any(z < 0) or np.any(z >= p):
        raise ValueError("plaintext entries must lie in [0, p)")
    # broadcasting one triple over a batch would reuse it across messages
    if any(e.shape[:-1] != z.shape[:-1] for e in (errors.e1, errors.e2, errors.e3)):
        raise ValueError("need exactly one error triple per plaintext row")
    c = (lattice_product(errors.e1, key.B) + errors.e3 + z) % p
    d = (lattice_product(errors.e1, key.A) + errors.e2) % p
    return Ciphertext(c=c, d=d)


def decrypt(ct: Ciphertext, key: KeyPair) -> np.ndarray:
    """Exact decryption: (d S + c) mod p = plaintext + residual mod p."""
    if ct.c.shape[-1:] != (key.params.k,) or ct.d.shape[-1:] != (key.params.n2,):
        raise ValueError(
            f"ciphertext shapes {ct.c.shape}/{ct.d.shape} do not match "
            f"params k={key.params.k}, n2={key.params.n2}")
    return (lattice_product(ct.d, key.S) + ct.c) % key.params.p


def decrypt_noisy(c_hat: np.ndarray, d: np.ndarray, key: KeyPair) -> np.ndarray:
    """Decrypt real-valued noisy ciphertext rows.

    Returns ``real_mod(d S + c_hat, p)`` with floor-based reduction to
    ``[0, p)``, so on integer inputs this coincides with :func:`decrypt`.
    """
    c_hat = np.asarray(c_hat, dtype=np.float64)
    if not np.all(np.isfinite(c_hat)):
        raise ValueError("noisy ciphertext entries must be finite")
    r = lattice_product(d, key.S) + c_hat
    return np.mod(r, float(key.params.p))


def centered(x: np.ndarray, p: int) -> np.ndarray:
    """Map residues (or reals) to the centered range around zero."""
    half = p // 2
    return np.mod(np.asarray(x) + half, p) - half


# -- key files ---------------------------------------------------------------
#
# Structured JSON, matrices base-10 row-major. The public file holds the
# public matrices explicitly and omits both S and key_seed: key_seed
# regenerates S, so it is secret material and never leaves the secret file.


def _params_dict(params: LweParams) -> dict:
    return {"p": params.p, "n1": params.n1, "n2": params.n2,
            "sigma_s": params.sigma_s, "k": params.k}


def save_key_files(key: KeyPair, public_path: str | Path,
                   secret_path: str | Path) -> None:
    public = {
        "format": "securejscc-key",
        "version": KEY_FILE_VERSION,
        "kind": "public",
        "params": _params_dict(key.params),
        "lattice_seed": key.lattice_seed,
        "B": key.B.tolist(),
        "A": key.A.tolist(),
    }
    secret = {
        "format": "securejscc-key",
        "version": KEY_FILE_VERSION,
        "kind": "secret",
        "params": _params_dict(key.params),
        "key_seed": key.key_seed,
        "lattice_seed": key.lattice_seed,
        "S": key.S.tolist(),
    }
    Path(public_path).write_text(json.dumps(public))
    Path(secret_path).write_text(json.dumps(secret))


KEY_FILE_FIELDS = {"public": ("params", "lattice_seed", "B", "A"),
                   "secret": ("params", "key_seed", "lattice_seed", "S")}


def _load_key_json(path: str | Path, kind: str) -> dict:
    data = json.loads(Path(path).read_text())
    if data.get("format") != "securejscc-key" or data.get("kind") != kind:
        raise ValueError(f"{path} is not a securejscc {kind} key file")
    if data.get("version") != KEY_FILE_VERSION:
        raise ValueError(f"unsupported key file version {data.get('version')}")
    for name in KEY_FILE_FIELDS[kind]:
        if name not in data:
            raise ValueError(f"{kind} key file {path} has no {name!r} field")
    return data


def load_public_key(path: str | Path) -> PublicKey:
    data = _load_key_json(path, "public")
    params = LweParams(**data["params"])
    return PublicKey(params=params,
                     B=np.asarray(data["B"], dtype=np.int64),
                     A=np.asarray(data["A"], dtype=np.int64),
                     lattice_seed=int(data["lattice_seed"]))


def load_secret_key(path: str | Path) -> KeyPair:
    """Rebuild the full key pair from the secret file.

    The pair is regenerated from the stored seeds; the stored S acts as an
    integrity check against seed or parameter mismatches.
    """
    data = _load_key_json(path, "secret")
    params = LweParams(**data["params"])
    key = keygen(params, int(data["key_seed"]), int(data["lattice_seed"]))
    stored_S = np.asarray(data["S"], dtype=np.int64)
    if not np.array_equal(stored_S, key.S):
        raise ValueError(f"secret file {path} is inconsistent with its seeds")
    return key
