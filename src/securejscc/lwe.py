"""Lattice encryption over Z_p.

Implements discrete Gaussian sampling, key generation, public-key
encryption in two steps (:func:`pad` encrypts the zero plaintext on error
triples, :func:`encrypt` adds the plaintext to it) and decryption of exact
or noisy ciphertexts. Decryption is additive: it returns the plaintext plus
a small structured residual (``S^T e2 + U^T e1 + e3``), which the
surrounding transmission chain treats as one more noise source.

Representation conventions: public matrices and ciphertexts are stored as
least non-negative residues in ``[0, p)``; the secret ``S`` and decryption
residuals are handled as centered residues in ``(-p/2, p/2]`` so their
noise statistics are meaningful.

Simulation grade only: no constant-time hardening, no side-channel
resistance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import check_distinct, integer_rows, message_streams, normal_rows, streams

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
        if not 0 < self.sigma_s < math.inf:
            raise ValueError(f"sigma_s must be positive and finite, got {self.sigma_s}")
        if self.k < 1:
            raise ValueError(f"plaintext length k must be >= 1, got {self.k}")
        if max(self.n1, self.n2) * (self.p - 1) * self.tail >= EXACT_FLOAT_LIMIT:
            raise ValueError(
                f"lattice products would not be exact in float64: max(n1, n2) * "
                f"(p - 1) * {self.tail} (sampler tail) >= 2**53 for p={self.p}, "
                f"{self.n1}x{self.n2}, sigma_s={self.sigma_s}")

    @property
    def tail(self) -> int:
        """The largest magnitude :func:`_gaussian_rows` can return:
        ``SAMPLER_TAIL_SIGMAS`` standard deviations of its normal, rounded up.
        Capped at 2**53, past which no lattice is accepted anyway, so that a
        huge finite ``sigma_s`` gives a number, not +inf."""
        tail = SAMPLER_TAIL_SIGMAS * self.sigma_s / math.sqrt(2.0 * math.pi)
        return math.ceil(min(tail, float(EXACT_FLOAT_LIMIT)))

    def check_moduli(self, **moduli: int) -> None:
        """A ValueError naming both if any of ``moduli`` (by owner) is not ``p``."""
        for name, q in moduli.items():
            if q != self.p:
                raise ValueError(f"{name} modulus {q} is not the key modulus {self.p}")


@dataclass(frozen=True)
class PublicKey:
    """Encryption-side key material: no secret fields."""

    params: LweParams
    B: np.ndarray  # n1 x k, residues in [0, p)
    A: np.ndarray  # n1 x n2, residues in [0, p)
    lattice_seed: int


@dataclass(frozen=True)
class KeyPair(PublicKey):
    """The receiver's key: the public key plus ``S`` and ``key_seed``."""

    S: np.ndarray  # n2 x k, centered (signed) residues
    key_seed: int

    def public(self) -> PublicKey:
        return PublicKey(self.params, self.B, self.A, self.lattice_seed)


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


def _gaussian_rows(sigma_s: float, rngs, shape) -> np.ndarray:
    """One ``shape`` block of rounded N(0, sigma_s^2 / 2pi) draws per stream.

    The whole stack is rounded once; the draws are the ones
    ``rng.normal(0, sigma_s / sqrt(2 pi), shape)`` makes. Rounding is to the
    nearest integer, halves away from zero, which keeps the mean at zero and
    adds roughly 1/12 to the continuous variance: ``x + copysign(0.5, x)`` is
    ``|x| + 0.5`` with the sign of x (float rounding is symmetric), and the
    cast truncates it toward zero.
    """
    x = normal_rows(rngs, shape)
    x *= sigma_s / math.sqrt(2.0 * math.pi)
    r = np.copysign(0.5, x)
    r += x
    return r.astype(np.int64)


def lattice_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` of integer arrays, exact, as int64.

    numpy never sends an integer matmul to BLAS. Every product in the
    package multiplies residues in ``[0, p)`` by sampler draws of magnitude
    at most ``params.tail``, so each partial sum is an integer below the
    bound :class:`LweParams` enforces, 2**53, and float64 holds it exactly:
    the float64 product is the exact one whatever order, blocking or thread
    count BLAS sums in.
    """
    return (np.asarray(x, np.float64) @ np.asarray(y, np.float64)).astype(np.int64)


def residues(x: np.ndarray, p: int) -> np.ndarray:
    """``x % p`` of an integer array, in ``[0, p)``, without a hardware divide:
    numpy divides by a scalar with a multiply and a shift, so ``x - (x // p)
    * p`` is the same floor reduction, at about a fifth of ``%``'s cost on
    16,384 entries (int64 wrap-around in the product cancels in the
    difference). Floats keep ``np.mod``: their floor division is not exact."""
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise TypeError(f"residues reduces integer arrays, got dtype {x.dtype}")
    r = np.asarray(x // p)  # an array for a 0-d x too
    r *= p
    return np.subtract(x, r, r)


def public_matrix(U: np.ndarray, A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """B = (U - A @ S) mod p."""
    return residues(U - lattice_product(A, S), p)


def keygen_stack(params: LweParams, key_seeds,
                 lattice_seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(S, B, A)`` of ``keygen(params, key_seeds[i], lattice_seeds[i])``
    for every i, stacked along a leading axis: B is one stacked product."""
    n1, n2, k = params.n1, params.n2, params.k
    SU = _gaussian_rows(params.sigma_s, streams(key_seeds, 0), (n2 + n1, k))
    A = integer_rows(streams(lattice_seeds, 0), params.p, (n1, n2))
    S, U = SU[:, :n2], SU[:, n2:]
    return S, public_matrix(U, A, S, params.p), A


def keygen(params: LweParams, key_seed: int, lattice_seed: int) -> KeyPair:
    """Generate a key pair deterministically from two seeds under the seed rule
    (``rng.check_distinct``): ``S`` then ``U`` are drawn from the key_seed
    stream (discrete Gaussian); ``A`` is uniform over ``[0, p)``: the values
    ``rng.integers(0, p, (n1, n2), dtype=np.int64)`` draws from the lattice_seed stream."""
    check_distinct({"key_seed": key_seed, "lattice_seed": lattice_seed})
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
    differences (the ciphertext is affine in the plaintext), so the indices
    must pass :func:`~securejscc.rng.message_streams`' rule: none repeats
    within the call or lies outside ``[0, 2**64)``.
    """
    return error_rows(message_streams(shared_error_seed, message_indices), params)


def pad(key: PublicKey, errors: ErrorTriple) -> Ciphertext:
    """The encryption of the zero plaintext, ``c = (e1 B + e3) mod p`` and
    ``d = (e1 A + e2) mod p``, one row per triple: formed before the
    plaintext is known, completed by :func:`encrypt`. ``key`` may also stack
    one key per message, B (T, n1, k) and A (T, n1, n2) from
    :func:`keygen_stack`, for (T, 1, .) error rows."""
    # broadcasting one error over another's rows would reuse it across messages
    if not errors.e1.shape[:-1] == errors.e2.shape[:-1] == errors.e3.shape[:-1]:
        raise ValueError("need exactly one error triple per plaintext row")
    p = key.params.p
    return Ciphertext(c=residues(lattice_product(errors.e1, key.B) + errors.e3, p),
                      d=residues(lattice_product(errors.e1, key.A) + errors.e2, p))


def encrypt(plaintext: np.ndarray, pads: Ciphertext, params: LweParams) -> Ciphertext:
    """Plaintext rows in Z_p^k, one message (k,) or a batch (B, k), encrypted
    on their own :func:`pad` rows: ``c = (pads.c + plaintext) mod p``, that
    is ``(e1 B + e3 + plaintext) mod p``, and ``d = pads.d``."""
    z = np.asarray(plaintext, dtype=np.int64)
    if z.shape[-1:] != (params.k,):
        raise ValueError(f"plaintext must have length k={params.k}, got shape {z.shape}")
    if np.any(z < 0) or np.any(z >= params.p):
        raise ValueError("plaintext entries must lie in [0, p)")
    if pads.c.shape != z.shape:
        raise ValueError("need exactly one error triple per plaintext row")
    return Ciphertext(c=residues(pads.c + z, params.p), d=pads.d)


def decrypt(c: np.ndarray, d: np.ndarray, key: KeyPair) -> np.ndarray:
    """(d S + c) mod p = plaintext + residual mod p, one row per message:
    int64 residues for a ciphertext's integer ``c``, floats in ``[0, p)``
    for its real-valued noisy estimate. ``c`` may stack several estimates
    of the same messages over ``d``'s rows: ``(m, B, k)`` over ``(B, n2)``."""
    if c.shape[-1:] != (key.params.k,) or d.shape[-1:] != (key.params.n2,):
        raise ValueError(
            f"ciphertext shapes {c.shape}/{d.shape} do not match "
            f"params k={key.params.k}, n2={key.params.n2}")
    # broadcasting would pair one d row with many messages, or the reverse
    if d.ndim > c.ndim or c.shape[c.ndim - d.ndim:-1] != d.shape[:-1]:
        raise ValueError(f"ciphertext rows {c.shape[:-1]} do not end in the "
                         f"d rows {d.shape[:-1]}: need one d row per message")
    if not np.isfinite(c).all():
        raise ValueError("ciphertext entries must be finite")
    return np.mod(lattice_product(d, key.S) + c, key.params.p)


def centered(x: np.ndarray, p: int) -> np.ndarray:
    """Map residues (or reals) to the centered range around zero."""
    half = p // 2
    return np.mod(np.asarray(x) + half, p) - half
