import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from securejscc import lwe
from securejscc.config import load_public_key, load_secret_key, save_key_files
from securejscc.lwe import (EXACT_FLOAT_LIMIT, Ciphertext, ErrorTriple, KeyPair,
                            LweParams, _gaussian_rows, centered, decrypt,
                            derive_error_rows, encrypt, keygen, keygen_stack,
                            lattice_product, pad, public_matrix, residues)
from securejscc.rng import stream

SMALL = LweParams(p=17, n1=4, n2=4, sigma_s=2.0, k=3)
TABLE = LweParams(p=4093, n1=192, n2=192, sigma_s=8.87, k=512)


def message_errors(seed, index, params):
    """The (e1, e2, e3) triple of one message: row 0 of derive_error_rows."""
    rows = derive_error_rows(seed, [index], params)
    return ErrorTriple(e1=rows.e1[0], e2=rows.e2[0], e3=rows.e3[0])


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (keeps zero mean)."""
    r = np.abs(x)
    return np.multiply(np.sign(x), np.floor(np.add(r, 0.5, out=r), out=r), out=r)


def sample_discrete_gaussian(sigma_s: float, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """``count`` integers: ``rng``'s N(0, sigma_s^2 / 2pi) draws, rounded half
    away from zero, so of variance close to ``sigma_s**2 / (2*pi) + 1/12``.

    The library's sampler, ``lwe._gaussian_rows``, must make exactly these
    draws; the tests below compare keys and error triples against them.
    """
    if not sigma_s > 0:
        raise ValueError(f"sigma_s must be positive, got {sigma_s}")
    x = rng.normal(0.0, sigma_s / math.sqrt(2.0 * math.pi), count)
    return round_half_away(x).astype(np.int64)


def round_trip(z, keys, errors):
    """Decrypt the encryption of ``z``."""
    ct = encrypt(z, pad(keys, errors), keys.params)
    return decrypt(ct.c, ct.d, keys)


def zero_errors(params):
    return ErrorTriple(e1=np.zeros(params.n1, dtype=np.int64),
                       e2=np.zeros(params.n2, dtype=np.int64),
                       e3=np.zeros(params.k, dtype=np.int64))


# -- params ------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(p=1, n1=4, n2=4, sigma_s=1.0, k=3),
    dict(p=17, n1=0, n2=4, sigma_s=1.0, k=3),
    dict(p=17, n1=4, n2=0, sigma_s=1.0, k=3),
    dict(p=17, n1=4, n2=4, sigma_s=0.0, k=3),
    dict(p=17, n1=4, n2=4, sigma_s=1.0, k=0),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        LweParams(**kwargs)


def test_params_reject_inexact_products():
    tail = LweParams(p=17, n1=1, n2=1, sigma_s=8.87, k=1).tail
    assert tail == 49  # ceil(13.72 * 8.87 / sqrt(2 pi))
    top = (EXACT_FLOAT_LIMIT - 1) // tail  # the largest exact p - 1 at n = 1
    LweParams(p=top + 1, n1=1, n2=1, sigma_s=8.87, k=1)
    with pytest.raises(ValueError, match=r"not be exact in float64.* >= 2\*\*53"):
        LweParams(p=top + 2, n1=1, n2=1, sigma_s=8.87, k=1)
    # sigma_s = 0.1 has a tail of 1: max(n1, n2) * (p - 1) is the bound itself
    assert LweParams(p=17, n1=1, n2=1, sigma_s=0.1, k=1).tail == 1
    LweParams(p=69431 * 20394401 + 1, n1=6361, n2=1, sigma_s=0.1, k=1)  # 2**53 - 1
    with pytest.raises(ValueError, match=r">= 2\*\*53"):
        LweParams(p=2 ** 52 + 1, n1=1, n2=2, sigma_s=0.1, k=1)  # 2**53
    # a finite sigma_s whose tail overflows a float is rejected too
    with pytest.raises(ValueError, match=r">= 2\*\*53"):
        LweParams(p=251, n1=16, n2=16, sigma_s=1.3e307, k=16)


@pytest.mark.parametrize("sigma_s", [math.inf, math.nan])
def test_params_reject_non_finite_sigma(sigma_s):
    with pytest.raises(ValueError, match="sigma_s must be positive and finite"):
        LweParams(p=17, n1=4, n2=4, sigma_s=sigma_s, k=3)


# -- exact lattice products --------------------------------------------------


def bounded_operands(data, shape, bound):
    """Integers in [-bound, bound] with one entry at +-bound, so the
    operand's max-abs is exactly ``bound``."""
    flat = data.draw(st.lists(st.integers(-bound, bound), min_size=math.prod(shape),
                              max_size=math.prod(shape)))
    flat[data.draw(st.integers(0, len(flat) - 1))] = data.draw(st.sampled_from([-bound, bound]))
    return np.array(flat, dtype=np.int64).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lattice_product_matches_int64_matmul(data):
    n = data.draw(st.integers(1, 6))
    rows, cols, stack = (data.draw(st.integers(1, 4)) for _ in range(3))
    x_shape, y_shape = data.draw(st.sampled_from([
        ((n,), (n, cols)),                            # one row
        ((rows, n), (n, cols)),                       # rows
        ((stack, rows, n), (stack, n, cols)),         # one key per stack item
        ((stack, 1, n), (stack, n, cols)),            # the game's challenges
    ]))
    mx = data.draw(st.integers(1, 2 ** 45))
    # put n * max|x| * max|y| at or just below 2**53 - 1, the largest bound
    # LweParams accepts
    my = max(1, (EXACT_FLOAT_LIMIT - 1) // (n * mx) - data.draw(st.integers(0, 1)))
    x = bounded_operands(data, x_shape, mx)
    y = bounded_operands(data, y_shape, my)
    got = lattice_product(x, y)
    assert got.dtype == np.int64
    assert np.array_equal(got, x @ y)


@pytest.mark.parametrize("n, mx, my", [
    (6361, 69431, 20394401),       # n * mx * my = 2**53 - 1
])
def test_lattice_product_exact_at_the_bound(n, mx, my):
    # every term at the maximum, one sign: the partial sums reach the bound
    for sign in (1, -1):
        x = np.full((2, n), sign * mx, dtype=np.int64)
        y = np.full((n, 3), my, dtype=np.int64)
        assert np.all(lattice_product(x, y) == sign * n * mx * my)


RESIDUE_MODULI = [2, 3, 251, 257, 4093, 4096]


@st.composite
def residue_dividends(draw):
    """A modulus and an int64 array of shape (), (n,) or (T, 1, k): values up
    to +-2**62, multiples of p and values +-1 from them."""
    p = draw(st.sampled_from(RESIDUE_MODULI))
    shape = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                           st.tuples(st.integers(1, 3), st.just(1), st.integers(1, 4))))
    near = st.builds(lambda q, off: q * p + off, st.integers(-(2 ** 62) // p, 2 ** 62 // p),
                     st.sampled_from([-1, 0, 1]))
    values = draw(st.lists(st.one_of(st.integers(-(2 ** 62), 2 ** 62), near),
                           min_size=math.prod(shape), max_size=math.prod(shape)))
    return p, np.array(values, dtype=np.int64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(residue_dividends())
def test_residues_equal_python_remainder(case):
    p, x = case
    got = residues(x, p)
    assert got.shape == x.shape and got.dtype == np.int64
    assert got.ravel().tolist() == [v % p for v in x.ravel().tolist()]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_residues_reject_floats(dtype):
    # floor division of a float is not exact: floats keep np.mod
    with pytest.raises(TypeError, match=np.dtype(dtype).name):
        residues(np.arange(4, dtype=dtype), 17)


# -- sampler -----------------------------------------------------------------


def test_round_half_away_from_zero():
    x = np.array([0.5, -0.5, 1.5, -1.5, 0.49, -0.49, 2.0])
    assert np.array_equal(round_half_away(x), [1, -1, 2, -2, 0, -0.0, 2])


class FixedNormals:
    """A stand-in stream whose normal draws are given values."""

    def __init__(self, values):
        self.values = values

    def standard_normal(self, out):
        out[...] = self.values


def test_sampler_rounding_equals_round_half_away():
    halves = np.arange(-2000, 2001) + 0.5
    x = np.concatenate([
        halves, np.nextafter(halves, -np.inf), np.nextafter(halves, np.inf),
        [0.0, -0.0, 0.49999999999999994, -0.49999999999999994,
         2.0 ** 52 - 0.5, -(2.0 ** 52 - 0.5)],
        *(scale * stream(80, i).standard_normal(10 ** 6)
          for i, scale in enumerate((1.0, 8.87 / math.sqrt(2.0 * math.pi),
                                     1e3, 1e12)))])
    # sigma_s = sqrt(2 pi) scales the draws by exactly 1
    got = _gaussian_rows(math.sqrt(2.0 * math.pi), [FixedNormals(x)], x.shape)[0]
    assert np.array_equal(got, round_half_away(x).astype(np.int64))


def test_sampler_determinism():
    a = sample_discrete_gaussian(8.87, 1000, stream(5))
    b = sample_discrete_gaussian(8.87, 1000, stream(5))
    assert np.array_equal(a, b)


def test_sampler_degenerate_count():
    assert sample_discrete_gaussian(1.0, 0, stream(0)).shape == (0,)


def test_sampler_tiny_sigma_all_zero():
    assert np.all(sample_discrete_gaussian(1e-6, 100, stream(0)) == 0)


def test_sampler_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        sample_discrete_gaussian(0.0, 10, stream(0))


def test_sampler_variance_quick():
    # coarse version of the calibration check; the tight 1e6-sample version
    # lives in the acceptance suite
    samples = sample_discrete_gaussian(8.87, 100_000, stream(42))
    expected = 8.87 ** 2 / (2 * math.pi) + 1.0 / 12.0
    assert abs(samples.var() / expected - 1.0) < 0.05
    assert abs(samples.mean()) < 3 * 8.87 / math.sqrt(100_000)


# -- keygen ------------------------------------------------------------------


def test_keygen_shapes_and_ranges():
    keys = keygen(TABLE, 1, 2)
    assert keys.B.shape == (192, 512)
    assert keys.A.shape == (192, 192)
    assert keys.S.shape == (192, 512)
    assert np.all((keys.B >= 0) & (keys.B < 4093))
    assert np.all((keys.A >= 0) & (keys.A < 4093))


def test_keygen_deterministic():
    a = keygen(SMALL, 10, 20)
    b = keygen(SMALL, 10, 20)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.A, b.A)


def test_zero_secret_gives_b_equal_u():
    keys = keygen(SMALL, 10, 20)
    U = stream(99).integers(0, 17, size=(4, 3))
    S0 = np.zeros((4, 3), dtype=np.int64)
    assert np.array_equal(public_matrix(U, keys.A, S0, 17), U % 17)


def test_key_draws_equal_separate_draws():
    # S then U from one normal call equals two calls on the same stream
    keys = keygen(SMALL, 10, 20)
    krng = stream(10)
    S = sample_discrete_gaussian(SMALL.sigma_s, SMALL.n2 * SMALL.k, krng)
    U = sample_discrete_gaussian(SMALL.sigma_s, SMALL.n1 * SMALL.k, krng)
    assert np.array_equal(keys.S, S.reshape(SMALL.n2, SMALL.k))
    assert np.array_equal(keys.B, public_matrix(U.reshape(SMALL.n1, SMALL.k),
                                                keys.A, keys.S, SMALL.p))


def test_keygen_stack_rows_equal_keygen():
    seeds = [(3, 4), (5, 6), (3, 7)]
    S, B, A = keygen_stack(SMALL, *zip(*seeds))
    for i, (key_seed, lattice_seed) in enumerate(seeds):
        keys = keygen(SMALL, key_seed, lattice_seed)
        assert np.array_equal(S[i], keys.S)
        assert np.array_equal(B[i], keys.B)
        assert np.array_equal(A[i], keys.A)


@pytest.mark.parametrize("key_seed, lattice_seed", [(7, 7), (7, 7 + 2**64), (-1, 2**64 - 1)])
def test_keygen_rejects_seeds_equal_mod_2_64(key_seed, lattice_seed):
    # A would be bounded of the raw words that S's and U's normals come from
    with pytest.raises(ValueError, match="equals lattice seed .* mod 2\\*\\*64"):
        keygen(SMALL, key_seed, lattice_seed)
    S, _, A = keygen_stack(SMALL, [key_seed], [lattice_seed])  # the game's keys: unchecked
    assert S.shape == (1, SMALL.n2, SMALL.k) and A.shape == (1, SMALL.n1, SMALL.n2)


@pytest.mark.parametrize("p", [17, 4093, 3 * 2**30, 2**32 + 1])
def test_lattice_is_the_generator_integers(p):
    params = LweParams(p=p, n1=3, n2=5, sigma_s=1e-3, k=2)
    for lattice_seed in (20, -1, 2**64 - 1):
        expected = stream(lattice_seed).integers(0, p, size=(3, 5), dtype=np.int64)
        assert np.array_equal(keygen(params, 10, lattice_seed).A, expected)


def test_public_view_carries_no_secret():
    pk = keygen(SMALL, 10, 20).public()
    assert not hasattr(pk, "S")
    assert not hasattr(pk, "key_seed")


# -- error derivation --------------------------------------------------------


def test_derive_errors_deterministic():
    a = message_errors(7, 3, SMALL)
    b = message_errors(7, 3, SMALL)
    assert np.array_equal(a.e1, b.e1)
    assert np.array_equal(a.e2, b.e2)
    assert np.array_equal(a.e3, b.e3)


def test_derive_errors_equal_separate_draws():
    errors = message_errors(7, 3, TABLE)
    rng = stream(7, 3)
    for got, n in zip((errors.e1, errors.e2, errors.e3), (192, 192, 512)):
        assert np.array_equal(got, sample_discrete_gaussian(8.87, n, rng))


def test_derive_errors_lengths():
    e = message_errors(7, 0, TABLE)
    assert (len(e.e1), len(e.e2), len(e.e3)) == (192, 192, 512)


def test_derive_errors_independent_across_indices():
    params = LweParams(p=4093, n1=100_000, n2=4, sigma_s=8.87, k=4)
    a = message_errors(7, 0, params).e1.astype(float)
    b = message_errors(7, 1, params).e1.astype(float)
    assert not np.array_equal(a, b)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.01


@pytest.mark.parametrize("indices, bad, fault", [
    ([3, 0, 3], 3, "repeats"),
    # 0 and 2**64 would key the same stream: the key keeps 64 bits
    ([0, 2**64], 2**64, "is outside"),
    ([-1], -1, "is outside"),
    ([2**64], 2**64, "is outside"),
], ids=["repeat", "wraps_onto_0", "negative", "2**64"])
def test_derive_errors_rejects_a_shared_triple(indices, bad, fault):
    with pytest.raises(ValueError, match=f"message index {bad} {fault}"):
        derive_error_rows(9, indices, TABLE)


def test_derive_errors_draws_each_index_once(monkeypatch):
    drawn = []
    real = lwe.error_rows

    def counting(rngs, params):
        drawn.append(len(rngs))
        return real(rngs, params)

    monkeypatch.setattr(lwe, "error_rows", counting)
    indices = [3, 0, 2**64 - 1, 7]
    rows = derive_error_rows(9, indices, TABLE)
    assert drawn == [4]
    for r, index in enumerate(indices):
        one = message_errors(9, index, TABLE)
        for got, expected in zip((rows.e1, rows.e2, rows.e3), (one.e1, one.e2, one.e3)):
            assert got.dtype == np.int64 and np.array_equal(got[r], expected), r


def test_derive_errors_rejects_negative_index():
    with pytest.raises(ValueError):
        message_errors(7, -1, SMALL)


# -- encrypt / decrypt -------------------------------------------------------


def test_encrypt_zero_everything():
    keys = keygen(SMALL, 1, 2)
    ct = encrypt(np.zeros(3, dtype=np.int64), pad(keys, zero_errors(SMALL)), keys.params)
    assert np.all(ct.c == 0)
    assert np.all(ct.d == 0)


def test_encrypt_validates_plaintext():
    keys = keygen(SMALL, 1, 2)
    errors = zero_errors(SMALL)
    with pytest.raises(ValueError):
        encrypt(np.array([0, 1]), pad(keys, errors), keys.params)
    with pytest.raises(ValueError):
        encrypt(np.array([0, 1, 17]), pad(keys, errors), keys.params)
    with pytest.raises(ValueError):
        encrypt(np.array([0, 1, -1]), pad(keys, errors), keys.params)


def test_encrypt_batch_needs_one_triple_per_row():
    # broadcasting one (n1,) triple over a batch would reuse it across
    # messages: the break the attack's sabotage control detects
    keys = keygen(SMALL, 1, 2)
    z = stream(62).integers(0, 17, size=(4, 3))
    with pytest.raises(ValueError):
        encrypt(z, pad(keys, message_errors(9, 0, SMALL)), keys.params)
    with pytest.raises(ValueError):
        encrypt(z, pad(keys, derive_error_rows(9, range(3), SMALL)), keys.params)
    batch = encrypt(z, pad(keys, derive_error_rows(9, range(4), SMALL)), keys.params)
    plain = decrypt(batch.c, batch.d, keys)
    for i in range(4):
        single = encrypt(z[i], pad(keys, message_errors(9, i, SMALL)), keys.params)
        assert np.array_equal(batch.c[i], single.c)
        assert np.array_equal(batch.d[i], single.d)
        assert np.array_equal(plain[i], decrypt(single.c, single.d, keys))


def wrapped(dividend, p):
    """``dividend``, after asserting that it holds entries below 0 and at or
    above p, so that its reduction wraps both ways."""
    assert (dividend < 0).any() and (dividend >= p).any()
    return dividend


def test_public_matrix_wraps_like_python_remainder():
    S, _, A = keygen_stack(SMALL, [3, 5], [4, 6])
    U = stream(63).integers(-3 * SMALL.p, 3 * SMALL.p, size=(2, SMALL.n1, SMALL.k))
    assert np.array_equal(public_matrix(U, A, S, SMALL.p),
                          wrapped(U - A @ S, SMALL.p) % SMALL.p)


def test_pad_and_encrypt_wrap_like_python_remainder():
    p = SMALL.p
    keys = keygen(SMALL, 1, 2)
    errors = derive_error_rows(9, range(40), SMALL)
    raw_c = wrapped(errors.e1 @ keys.B + errors.e3, p)
    raw_d = wrapped(errors.e1 @ keys.A + errors.e2, p)
    pads = pad(keys, errors)
    assert np.array_equal(pads.c, raw_c % p) and np.array_equal(pads.d, raw_d % p)
    # one key per message, as the game stacks them
    S, B, A = keygen_stack(SMALL, range(10, 50), range(50, 90))
    rows = ErrorTriple(*(e[:, None] for e in (errors.e1, errors.e2, errors.e3)))
    stacked = pad(lwe.PublicKey(params=SMALL, B=B, A=A, lattice_seed=0), rows)
    assert np.array_equal(stacked.c, wrapped(rows.e1 @ B + rows.e3, p) % p)
    assert np.array_equal(stacked.d, wrapped(rows.e1 @ A + rows.e2, p) % p)
    # encrypt reduces whatever integer pad it completes
    z = stream(64).integers(0, p, size=(40, SMALL.k))
    ct = encrypt(z, Ciphertext(c=raw_c, d=raw_d), SMALL)
    assert np.array_equal(ct.c, wrapped(raw_c + z, p) % p) and ct.d is raw_d


def test_decrypt_zero_errors_exact():
    keys = keygen(SMALL, 1, 2)
    z = np.array([3, 11, 16])
    assert np.array_equal(round_trip(z, keys, zero_errors(SMALL)), z)


def test_decrypt_d_zero_returns_c():
    keys = keygen(SMALL, 1, 2)
    z = np.array([5, 0, 12])
    ct = Ciphertext(c=z.copy(), d=np.zeros(4, dtype=np.int64))
    assert np.array_equal(decrypt(ct.c, ct.d, keys), z)


def test_decrypt_shape_mismatch():
    keys = keygen(SMALL, 1, 2)
    ct = Ciphertext(c=np.zeros(5, dtype=np.int64), d=np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        decrypt(ct.c, ct.d, keys)


def batch_ciphertext():
    """Four messages encrypted under their own error rows."""
    keys = keygen(SMALL, 1, 2)
    z = stream(63).integers(0, 17, size=(4, 3))
    return keys, encrypt(z, pad(keys, derive_error_rows(9, range(4), SMALL)),
                         keys.params)


# the decryption twin of encrypt's one-triple-per-row check: broadcasting
# would decrypt several messages under one d row, or one under several
@pytest.mark.parametrize("c_rows, d_rows", [
    (np.s_[:], np.s_[:1]), (np.s_[:1], np.s_[:]), (0, np.s_[:]),
    (np.s_[:3], np.s_[:2]), ("stacked", np.s_[:1])],
    ids=["4c-1d", "1c-4d", "c-4d", "3c-2d", "2x4c-1d"])
def test_decrypt_needs_one_d_row_per_message(c_rows, d_rows):
    keys, ct = batch_ciphertext()
    c = np.stack([ct.c, ct.c]) if c_rows == "stacked" else ct.c[c_rows]
    with pytest.raises(ValueError, match="one d row per message"):
        decrypt(c, ct.d[d_rows], keys)


def test_decrypt_stacks_estimates_of_the_same_messages():
    keys, ct = batch_ciphertext()
    plain = decrypt(np.stack([ct.c, ct.c + 0.5]), ct.d, keys)
    assert np.array_equal(plain[0], decrypt(ct.c, ct.d, keys))
    assert np.array_equal(plain[1], decrypt(ct.c + 0.5, ct.d, keys))
    assert np.array_equal(decrypt(ct.c[0], ct.d[0], keys), plain[0][0])


def brute_force_residual(keys, errors, params):
    """Independent oracle: S^T e2 + U^T e1 + e3 with plain Python ints."""
    krng = stream(keys.key_seed)
    S = sample_discrete_gaussian(params.sigma_s, params.n2 * params.k,
                                 krng).reshape(params.n2, params.k)
    U = sample_discrete_gaussian(params.sigma_s, params.n1 * params.k,
                                 krng).reshape(params.n1, params.k)
    out = []
    for i in range(params.k):
        acc = int(errors.e3[i])
        for j in range(params.n2):
            acc += int(S[j, i]) * int(errors.e2[j])
        for j in range(params.n1):
            acc += int(U[j, i]) * int(errors.e1[j])
        out.append(acc % params.p)
    return np.array(out, dtype=np.int64)


def test_decrypt_identity_against_brute_force():
    keys = keygen(SMALL, 31, 32)
    rng = stream(60)
    for trial in range(50):
        errors = message_errors(61, trial, SMALL)
        z = rng.integers(0, 17, size=3)
        got = (round_trip(z, keys, errors) - z) % 17
        assert np.array_equal(got, brute_force_residual(keys, errors, SMALL))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 100))
def test_affine_homomorphism(seed, index):
    keys = keygen(SMALL, 1, 2)
    rng = stream(seed)
    z = rng.integers(0, 17, size=3)
    delta = rng.integers(0, 17, size=3)
    errors = message_errors(9, index, SMALL)
    c0 = encrypt(z, pad(keys, errors), keys.params).c
    c1 = encrypt((z + delta) % 17, pad(keys, errors), keys.params).c
    assert np.array_equal((c1 - c0) % 17, delta % 17)


def test_d_is_plaintext_independent():
    keys = keygen(SMALL, 1, 2)
    errors = message_errors(9, 5, SMALL)
    d0 = encrypt(np.array([0, 0, 0]), pad(keys, errors), keys.params).d
    d1 = encrypt(np.array([16, 1, 9]), pad(keys, errors), keys.params).d
    assert np.array_equal(d0, d1)


def test_same_errors_leak_difference():
    # two plaintexts under one triple differ by exactly their difference
    keys = keygen(SMALL, 1, 2)
    errors = message_errors(9, 0, SMALL)
    z0, z1 = np.array([1, 2, 3]), np.array([4, 0, 16])
    c0 = encrypt(z0, pad(keys, errors), keys.params).c
    c1 = encrypt(z1, pad(keys, errors), keys.params).c
    assert np.array_equal((c0 - c1) % 17, (z0 - z1) % 17)


# -- noisy decryption --------------------------------------------------------


def test_decrypt_noisy_matches_exact_on_integers():
    keys = keygen(SMALL, 1, 2)
    errors = message_errors(9, 1, SMALL)
    ct = encrypt(np.array([3, 7, 2]), pad(keys, errors), keys.params)
    exact = decrypt(ct.c, ct.d, keys)
    noisy = decrypt(ct.c.astype(float), ct.d, keys)
    assert exact.dtype == np.int64 and noisy.dtype == np.float64
    assert np.array_equal(noisy, exact)


def test_decrypt_noisy_additive_offset():
    keys = keygen(SMALL, 1, 2)
    z = np.array([3, 7, 2])
    ct = encrypt(z, pad(keys, zero_errors(SMALL)), keys.params)
    noisy = decrypt(ct.c + 0.5, ct.d, keys)
    assert np.allclose(noisy, (z + 0.5) % 17)


def test_decrypt_noisy_rejects_nonfinite():
    keys = keygen(SMALL, 1, 2)
    with pytest.raises(ValueError, match="must be finite"):
        decrypt(np.array([np.nan, 0.0, 1.0]), np.zeros(4, dtype=np.int64), keys)


def test_decryption_residual_statistics():
    # centered residual of the exact decryption at the reference params
    keys = keygen(TABLE, 5, 6)
    qrng = stream(77)
    residuals = []
    for m in range(40):
        z = qrng.integers(0, 4093, size=512)
        errors = message_errors(78, m, TABLE)
        res = centered(round_trip(z, keys, errors) - z, 4093)
        residuals.append(res)
    res = np.concatenate(residuals)
    assert abs(res.mean()) < 3
    assert 235 <= res.std() <= 260


def test_ciphertext_marginal_uniformity():
    # fresh errors per message make the c entries look uniform on [0, p)
    scipy_stats = pytest.importorskip("scipy.stats")
    params = LweParams(p=17, n1=16, n2=16, sigma_s=8.87, k=8)
    keys = keygen(params, 3, 4)
    z = np.full(8, 5, dtype=np.int64)
    counts = np.zeros(17, dtype=np.int64)
    n_msgs = 20_000
    for m in range(n_msgs):
        ct = encrypt(z, pad(keys, message_errors(90, m, params)), keys.params)
        counts += np.bincount(ct.c, minlength=17)
    expected = n_msgs * 8 / 17
    stat = float(np.sum((counts - expected) ** 2) / expected)
    critical = scipy_stats.chi2.ppf(0.99, df=16)
    assert stat < critical, f"chi2 stat {stat:.1f} >= {critical:.1f}"


# -- key files ---------------------------------------------------------------


def test_key_file_round_trip(tmp_path):
    keys = keygen(SMALL, 10, 20)
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    save_key_files(keys, pub, sec)

    loaded_pub = load_public_key(pub)
    assert np.array_equal(loaded_pub.B, keys.B)
    assert np.array_equal(loaded_pub.A, keys.A)
    pub_blob = json.loads(pub.read_text())
    assert "S" not in pub_blob
    assert "key_seed" not in pub_blob

    loaded = load_secret_key(sec)
    assert np.array_equal(loaded.S, keys.S)
    assert np.array_equal(loaded.B, keys.B)


def test_secret_file_integrity_check(tmp_path):
    keys = keygen(SMALL, 10, 20)
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    save_key_files(keys, pub, sec)
    blob = json.loads(sec.read_text())
    blob["S"][0][0] += 1
    sec.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        load_secret_key(sec)


def test_secret_file_with_equal_seeds_is_rejected(tmp_path):
    # a file whose S is consistent with its seeds, but whose seeds are equal
    S, B, A = (m[0] for m in keygen_stack(SMALL, [7], [7]))
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    save_key_files(KeyPair(SMALL, S, B, A, key_seed=7, lattice_seed=7), pub, sec)
    with pytest.raises(ValueError, match=re.escape(f"{sec}: key seed 7 equals lattice")):
        load_secret_key(sec)


@pytest.mark.parametrize("which, name", [
    ("public", "params"), ("public", "B"), ("public", "A"),
    ("public", "lattice_seed"), ("secret", "params"), ("secret", "key_seed"),
    ("secret", "lattice_seed"), ("secret", "S")])
def test_key_file_missing_field_named(tmp_path, which, name):
    keys = keygen(SMALL, 10, 20)
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    save_key_files(keys, pub, sec)
    path, load = (pub, load_public_key) if which == "public" else (sec, load_secret_key)
    blob = json.loads(path.read_text())
    del blob[name]
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=f"no '{name}' field"):
        load(path)
