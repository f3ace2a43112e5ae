import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from securejscc.lwe import (EXACT_FLOAT_LIMIT, Ciphertext, ErrorTriple,
                            LweParams, centered, decrypt, decrypt_noisy,
                            derive_error_rows, derive_errors, encrypt,
                            keygen, keygen_stack, lattice_product,
                            load_public_key, load_secret_key,
                            public_matrix, round_half_away,
                            sample_discrete_gaussian, save_key_files)
from securejscc.rng import stream

SMALL = LweParams(p=17, n1=4, n2=4, sigma_s=2.0, k=3)
TABLE = LweParams(p=4093, n1=192, n2=192, sigma_s=8.87, k=512)


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


def test_params_reject_int64_overflow():
    tail = LweParams(p=17, n1=1, n2=1, sigma_s=8.87, k=1).tail
    assert tail == 49  # ceil(13.72 * 8.87 / sqrt(2 pi))
    top = (2 ** 63 - 1) // tail  # the largest p - 1 that cannot overflow
    LweParams(p=top + 1, n1=1, n2=1, sigma_s=8.87, k=1)
    with pytest.raises(ValueError, match="overflow int64"):
        LweParams(p=top + 2, n1=1, n2=1, sigma_s=8.87, k=1)
    with pytest.raises(ValueError, match="overflow int64"):
        LweParams(p=2 ** 40, n1=4, n2=2 ** 20, sigma_s=8.87, k=1)


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
    # put n * max|x| * max|y| just below, at or just past 2**53
    my = max(1, EXACT_FLOAT_LIMIT // (n * mx) + data.draw(st.integers(-1, 1)))
    x = bounded_operands(data, x_shape, mx)
    y = bounded_operands(data, y_shape, my)
    got = lattice_product(x, y)
    assert got.dtype == np.int64
    assert np.array_equal(got, x @ y)


@pytest.mark.parametrize("n, mx, my", [
    (6361, 69431, 20394401),       # n * mx * my = 2**53 - 1: float64 path
    (1, 3, (2 ** 53 + 1) // 3),    # = 2**53 + 1, which float64 rounds: int64 path
    (2, 2 ** 26, 2 ** 26),         # = 2**53: int64 path
])
def test_lattice_product_exact_at_the_bound(n, mx, my):
    # every term at the maximum, one sign: the partial sums reach the bound
    for sign in (1, -1):
        x = np.full((2, n), sign * mx, dtype=np.int64)
        y = np.full((n, 3), my, dtype=np.int64)
        assert np.all(lattice_product(x, y) == sign * n * mx * my)


# -- sampler -----------------------------------------------------------------


def test_round_half_away_from_zero():
    x = np.array([0.5, -0.5, 1.5, -1.5, 0.49, -0.49, 2.0])
    assert np.array_equal(round_half_away(x), [1, -1, 2, -2, 0, -0.0, 2])


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


def test_public_view_carries_no_secret():
    pk = keygen(SMALL, 10, 20).public()
    assert not hasattr(pk, "S")
    assert not hasattr(pk, "key_seed")


# -- error derivation --------------------------------------------------------


def test_derive_errors_deterministic():
    a = derive_errors(7, 3, SMALL)
    b = derive_errors(7, 3, SMALL)
    assert np.array_equal(a.e1, b.e1)
    assert np.array_equal(a.e2, b.e2)
    assert np.array_equal(a.e3, b.e3)


def test_derive_errors_equal_separate_draws():
    errors = derive_errors(7, 3, TABLE)
    rng = stream(7, 3)
    for got, n in zip((errors.e1, errors.e2, errors.e3), (192, 192, 512)):
        assert np.array_equal(got, sample_discrete_gaussian(8.87, n, rng))


def test_derive_errors_lengths():
    e = derive_errors(7, 0, TABLE)
    assert (len(e.e1), len(e.e2), len(e.e3)) == (192, 192, 512)


def test_derive_errors_independent_across_indices():
    params = LweParams(p=4093, n1=100_000, n2=4, sigma_s=8.87, k=4)
    a = derive_errors(7, 0, params).e1.astype(float)
    b = derive_errors(7, 1, params).e1.astype(float)
    assert not np.array_equal(a, b)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.01


def test_derive_errors_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_errors(7, -1, SMALL)


# -- encrypt / decrypt -------------------------------------------------------


def test_encrypt_zero_everything():
    keys = keygen(SMALL, 1, 2)
    ct = encrypt(np.zeros(3, dtype=np.int64), keys, zero_errors(SMALL))
    assert np.all(ct.c == 0)
    assert np.all(ct.d == 0)


def test_encrypt_validates_plaintext():
    keys = keygen(SMALL, 1, 2)
    errors = zero_errors(SMALL)
    with pytest.raises(ValueError):
        encrypt(np.array([0, 1]), keys, errors)
    with pytest.raises(ValueError):
        encrypt(np.array([0, 1, 17]), keys, errors)
    with pytest.raises(ValueError):
        encrypt(np.array([0, 1, -1]), keys, errors)


def test_encrypt_batch_needs_one_triple_per_row():
    # broadcasting one (n1,) triple over a batch would reuse it across
    # messages: the break the attack's sabotage control detects
    keys = keygen(SMALL, 1, 2)
    z = stream(62).integers(0, 17, size=(4, 3))
    with pytest.raises(ValueError):
        encrypt(z, keys, derive_errors(9, 0, SMALL))
    with pytest.raises(ValueError):
        encrypt(z, keys, derive_error_rows(9, range(3), SMALL))
    batch = encrypt(z, keys, derive_error_rows(9, range(4), SMALL))
    plain = decrypt(batch, keys)
    for i in range(4):
        single = encrypt(z[i], keys, derive_errors(9, i, SMALL))
        assert np.array_equal(batch.c[i], single.c)
        assert np.array_equal(batch.d[i], single.d)
        assert np.array_equal(plain[i], decrypt(single, keys))


def test_decrypt_zero_errors_exact():
    keys = keygen(SMALL, 1, 2)
    z = np.array([3, 11, 16])
    assert np.array_equal(decrypt(encrypt(z, keys, zero_errors(SMALL)), keys), z)


def test_decrypt_d_zero_returns_c():
    keys = keygen(SMALL, 1, 2)
    z = np.array([5, 0, 12])
    ct = Ciphertext(c=z.copy(), d=np.zeros(4, dtype=np.int64))
    assert np.array_equal(decrypt(ct, keys), z)


def test_decrypt_shape_mismatch():
    keys = keygen(SMALL, 1, 2)
    ct = Ciphertext(c=np.zeros(5, dtype=np.int64), d=np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        decrypt(ct, keys)


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
        errors = derive_errors(61, trial, SMALL)
        z = rng.integers(0, 17, size=3)
        got = (decrypt(encrypt(z, keys, errors), keys) - z) % 17
        assert np.array_equal(got, brute_force_residual(keys, errors, SMALL))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 100))
def test_affine_homomorphism(seed, index):
    keys = keygen(SMALL, 1, 2)
    rng = stream(seed)
    z = rng.integers(0, 17, size=3)
    delta = rng.integers(0, 17, size=3)
    errors = derive_errors(9, index, SMALL)
    c0 = encrypt(z, keys, errors).c
    c1 = encrypt((z + delta) % 17, keys, errors).c
    assert np.array_equal((c1 - c0) % 17, delta % 17)


def test_d_is_plaintext_independent():
    keys = keygen(SMALL, 1, 2)
    errors = derive_errors(9, 5, SMALL)
    d0 = encrypt(np.array([0, 0, 0]), keys, errors).d
    d1 = encrypt(np.array([16, 1, 9]), keys, errors).d
    assert np.array_equal(d0, d1)


def test_same_errors_leak_difference():
    # two plaintexts under one triple differ by exactly their difference
    keys = keygen(SMALL, 1, 2)
    errors = derive_errors(9, 0, SMALL)
    z0, z1 = np.array([1, 2, 3]), np.array([4, 0, 16])
    c0, c1 = encrypt(z0, keys, errors).c, encrypt(z1, keys, errors).c
    assert np.array_equal((c0 - c1) % 17, (z0 - z1) % 17)


# -- noisy decryption --------------------------------------------------------


def test_decrypt_noisy_matches_exact_on_integers():
    keys = keygen(SMALL, 1, 2)
    errors = derive_errors(9, 1, SMALL)
    ct = encrypt(np.array([3, 7, 2]), keys, errors)
    noisy = decrypt_noisy(ct.c.astype(float), ct.d, keys)
    assert np.allclose(noisy, decrypt(ct, keys))


def test_decrypt_noisy_additive_offset():
    keys = keygen(SMALL, 1, 2)
    z = np.array([3, 7, 2])
    ct = encrypt(z, keys, zero_errors(SMALL))
    noisy = decrypt_noisy(ct.c + 0.5, ct.d, keys)
    assert np.allclose(noisy, (z + 0.5) % 17)


def test_decrypt_noisy_rejects_nonfinite():
    keys = keygen(SMALL, 1, 2)
    with pytest.raises(ValueError):
        decrypt_noisy(np.array([np.nan, 0.0, 1.0]), np.zeros(4, dtype=np.int64), keys)


def test_decryption_residual_statistics():
    # centered residual of the exact decryption at the reference params
    keys = keygen(TABLE, 5, 6)
    qrng = stream(77)
    residuals = []
    for m in range(40):
        z = qrng.integers(0, 4093, size=512)
        errors = derive_errors(78, m, TABLE)
        res = centered(decrypt(encrypt(z, keys, errors), keys) - z, 4093)
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
        ct = encrypt(z, keys, derive_errors(90, m, params))
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
