import math

import numpy as np
import pytest

from securejscc import codec, lwe, security
from securejscc.codec import CodecSpec
from securejscc.datasets import DatasetSpec
from securejscc.lwe import LweParams, centered, encrypt, keygen, pad
from securejscc.modem import (build_constellation, modulate, noise_variance,
                              soft_demodulate)
from securejscc.quantizer import QuantizerConfig
from securejscc.rng import spawn_seed, stream
from securejscc.security import (DISTINGUISHERS, GAME_CHUNK_ENTRIES,
                                 AttackConfig, GameConfig, TrainedClassifier,
                                 default_plaintext_pair, run_cpa_attack,
                                 run_ind_cpa_game, trial_draws)
from test_codec import allocating_dense_backward, per_name_adam_step
from test_lwe import message_errors
from test_modem import awgn_one, receive_drawn

GAME_LWE = LweParams(p=257, n1=32, n2=32, sigma_s=8.87, k=16)
# a sampler this narrow draws only zeros: every challenge is c == m_b
BROKEN_LWE = LweParams(p=257, n1=32, n2=32, sigma_s=1e-3, k=16)
# one lattice row and a unit-width sampler: every challenge lies within a few
# units of its plaintext, so an honest distinguisher must win
WEAK_LWE = LweParams(p=257, n1=1, n2=1, sigma_s=1.0, k=16)
ATTACK_LWE = LweParams(p=4093, n1=64, n2=64, sigma_s=8.87, k=64)
ATTACK_SPEC = CodecSpec(kind="identity", input_shape=(8, 8, 1), k=64,
                        latent_scale=4093 / 256.0)
ATTACK_DATASET = DatasetSpec(kind="blob", count=0, height=8, width=8, channels=1)


def make_attack_cfg(**over):
    base = dict(adversary="linear", pairs=1200, dataset=ATTACK_DATASET,
                epochs=10, error_mode="fresh", seed=0)
    base.update(over)
    return AttackConfig(**base)


@pytest.fixture(scope="module")
def attack_setup():
    keys = keygen(ATTACK_LWE, 21, 22)
    return keys.public(), QuantizerConfig(4093, 16), keys


# -- test distinguishers ----------------------------------------------------


class FairCoin:
    """Guessing baseline; ignores the challenges entirely."""

    name = "fair_coin"

    def prepare(self, params, B, m0, m1, adv_seeds):
        pass

    def guess(self, c, adv_seeds):
        return np.array([stream(seed, 1).integers(0, 2) for seed in adv_seeds])


class LeakyDistinguisher:
    """Known accuracy ``q`` on :data:`BROKEN_LWE`: reads the bit off each
    challenge and flips it with probability ``1 - q``."""

    def __init__(self, accuracy: float):
        self.accuracy = accuracy
        self.name = f"leaky_q{accuracy}"

    def prepare(self, params, B, m0, m1, adv_seeds):
        self.m = np.stack([m0, m1])

    def guess(self, c, adv_seeds):
        bits = np.all(c == self.m[1], axis=1).astype(np.int64)
        assert np.array_equal(c, self.m[bits]), "the challenge carries errors"
        keep = np.array([stream(seed, 1).random() < self.accuracy
                         for seed in adv_seeds])
        return np.where(keep, bits, 1 - bits)


def serial_game_correct(cfg: GameConfig, distinguisher) -> int:
    """The game one trial at a time, each a stack of one: the oracle for
    the chunked game."""
    m0, m1 = default_plaintext_pair(cfg.params, cfg.n_levels)
    correct = 0
    for t in range(cfg.trials):
        trial_rng = stream(cfg.seed, t)
        keys = keygen(cfg.params, spawn_seed(trial_rng), spawn_seed(trial_rng))
        error_seed = spawn_seed(trial_rng)
        adv_seed = spawn_seed(trial_rng)
        b = int(trial_rng.integers(0, 2))
        distinguisher.prepare(cfg.params, keys.B[None], m0, m1, [adv_seed])
        errors = message_errors(error_seed, 0, cfg.params)
        ct = encrypt(m1 if b else m0, pad(keys.public(), errors), cfg.params)
        correct += int(distinguisher.guess(ct.c[None], [adv_seed])[0] == b)
    return correct


# -- plaintext pair ----------------------------------------------------------


def test_default_pair_extremes():
    m0, m1 = default_plaintext_pair(GAME_LWE, 16)
    assert np.all(m0 == 0)
    assert np.all(m1 == (15 * 257) // 16)
    assert m0.shape == m1.shape == (16,)


# -- game --------------------------------------------------------------------


def test_game_config_requires_trials():
    with pytest.raises(ValueError):
        GameConfig(trials=99, params=GAME_LWE)


def test_game_config_rejects_unknown_distinguisher():
    with pytest.raises(ValueError, match="unknown distinguisher 'fair_coin'"):
        GameConfig(trials=100, params=GAME_LWE, distinguisher="fair_coin")


def test_trial_draws_equal_bounded_integer_draws():
    # four 63-bit seeds and a bit from raw words, as integers() draws them
    keys = [(seed, t) for seed in (0, 2026, 2**63 - 1) for t in range(2000)]
    rngs = [stream(*key) for key in keys]
    oracles = [stream(*key) for key in keys]
    expected = [[*rng.integers(0, 1 << 63, size=4).tolist(), int(rng.integers(0, 2))]
                for rng in oracles]
    got = trial_draws(rngs)
    assert got.dtype == np.int64 and got.tolist() == expected
    # both leave their streams at the same word
    assert ([rng.random() for rng in rngs[:50]]
            == [rng.random() for rng in oracles[:50]])


@pytest.mark.parametrize("trials", [100, 131])
@pytest.mark.parametrize("make, params", [
    (DISTINGUISHERS["marginal_chisq"], GAME_LWE),
    (DISTINGUISHERS["trained_classifier"], GAME_LWE),
    (lambda: LeakyDistinguisher(0.75), BROKEN_LWE),
    (FairCoin, GAME_LWE),
    # every trial ties, so every guess is the tie-break coin
    (DISTINGUISHERS["marginal_chisq"], BROKEN_LWE),
])
def test_chunked_game_matches_serial_oracle(make, params, trials):
    # 32-trial chunks at n1 = n2 = 32: neither count is a multiple
    assert GAME_CHUNK_ENTRIES // (params.n1 * params.n2) == 32
    cfg = GameConfig(trials=trials, params=params, seed=trials)
    result = run_ind_cpa_game(cfg, make())
    assert result.correct == serial_game_correct(cfg, make())


def test_chunked_game_matches_serial_oracle_one_trial_per_chunk():
    params = LweParams(p=4093, n1=257, n2=256, sigma_s=8.87, k=8)
    assert GAME_CHUNK_ENTRIES // (params.n1 * params.n2) == 0  # chunks of one
    cfg = GameConfig(trials=100, params=params, seed=3)
    assert (run_ind_cpa_game(cfg).correct
            == serial_game_correct(cfg, DISTINGUISHERS["marginal_chisq"]()))


def chi_square_stats(c, m, p, bins):
    """The chi-square distinguisher's statistic of each challenge row under
    plaintext ``m``, binned from ``(c - m) % p`` one row at a time."""
    counts = np.array([np.bincount((row - m) % p * bins // p, minlength=bins) for row in c])
    expected = c.shape[1] / bins
    return ((counts - expected) ** 2).sum(-1) / expected


def test_chi_square_guess_wraps_like_python_remainder():
    p, k, trials = GAME_LWE.p, GAME_LWE.k, 300
    distinguisher = DISTINGUISHERS["marginal_chisq"]()
    m0, m1 = stream(71).integers(0, p, size=(2, k))
    adv_seeds = stream(72).integers(0, 2 ** 63, size=trials)
    distinguisher.prepare(GAME_LWE, None, m0, m1, adv_seeds)
    # integers on both sides of [0, p), so that (c - m_b) wraps both ways
    c = stream(73).integers(-2 * p, 2 * p, size=(trials, k))
    dividends = c[:, None] - np.stack([m0, m1])
    assert (dividends < 0).any() and (dividends >= p).any()
    s0, s1 = (chi_square_stats(c, m, p, distinguisher.bins) for m in (m0, m1))
    decided = s0 != s1  # a tie is a coin flip
    assert decided.sum() > trials // 2
    bits = distinguisher.guess(c, adv_seeds)
    assert np.array_equal(bits[decided], (s1 < s0)[decided])


@pytest.mark.parametrize("p", [2, 3, 257, 4093])
def test_classifier_features_equal_centered_residues(p):
    k = 16
    rng = stream(70, p)
    m0, m1 = rng.integers(0, p, size=(2, k))
    m0[:2], m1[:2] = (0, p - 1), (p - 1, 0)  # the widest differences
    c = np.concatenate([rng.integers(0, p, size=(50, k)),
                        np.zeros((1, k), np.int64), np.full((1, k), p - 1)])
    clf = TrainedClassifier()
    clf.train_size = 2
    clf.prepare(LweParams(p=p, n1=1, n2=1, sigma_s=1.0, k=k),
                np.zeros((1, 1, k), np.int64), m0, m1, [1])
    shifts = np.stack([np.zeros(k, np.int64), m0, m1])
    expected = centered(c[:, None, :] - shifts, p) / p
    got = clf._features(c, np.empty((len(c), 3 * k)))
    assert np.array_equal(got, expected.reshape(len(c), 3 * k))


def test_synthetic_oracle_advantages():
    # estimator consistency: known accuracy q maps to advantage 2q - 1
    cfg = GameConfig(trials=2000, params=BROKEN_LWE, seed=5)
    for q, adv, correct in ((0.5, 0.0, 995), (0.75, 0.5, 1482),
                            (1.0, 1.0, 2000)):
        result = run_ind_cpa_game(cfg, LeakyDistinguisher(q))
        assert result.correct == correct
        assert result.ci_low <= adv <= result.ci_high
        assert abs(result.advantage - adv) < 0.06


def test_leaking_oracle_wins_outright():
    cfg = GameConfig(trials=200, params=BROKEN_LWE, seed=6)
    result = run_ind_cpa_game(cfg, LeakyDistinguisher(1.0))
    assert result.advantage == 1.0
    assert result.correct == 200


def test_fair_coin_near_zero():
    cfg = GameConfig(trials=2000, params=GAME_LWE, seed=7)
    result = run_ind_cpa_game(cfg, FairCoin())
    assert result.ci_low <= 0.0 <= result.ci_high


def test_marginal_chisq_honest_near_zero():
    cfg = GameConfig(trials=1000, params=GAME_LWE, seed=8,
                     distinguisher="marginal_chisq")
    result = run_ind_cpa_game(cfg)
    assert abs(result.advantage) < 0.1


def test_marginal_chisq_ties_flip_the_generator_coin():
    # equal hypotheses tie on every trial: each guess is its trial's coin,
    # rng.integers(0, 2) on the stream (adv_seed, 1)
    distinguisher = DISTINGUISHERS["marginal_chisq"]()
    m = np.arange(GAME_LWE.k)
    distinguisher.prepare(GAME_LWE, None, m, m, None)
    adv_seeds = [0, -3, 2**64 - 1, *range(5, 405)]
    c = stream(1).integers(0, GAME_LWE.p, size=(len(adv_seeds), GAME_LWE.k))
    bits = distinguisher.guess(c, adv_seeds)
    assert bits.tolist() == [int(stream(seed, 1).integers(0, 2)) for seed in adv_seeds]
    assert 0 < bits.sum() < len(bits)


def test_trained_classifier_honest_near_zero():
    cfg = GameConfig(trials=600, params=GAME_LWE, seed=9)
    result = run_ind_cpa_game(cfg, TrainedClassifier())
    assert abs(result.advantage) < 0.12


@pytest.mark.parametrize("name", [
    "trained_classifier",
    pytest.param("marginal_chisq", marks=pytest.mark.xfail(
        strict=True, reason="blind by construction: shifting residues does not "
        "change how uniform they look (ROADMAP item 2)")),
])
def test_honest_distinguisher_breaks_a_weak_lattice(name):
    cfg = GameConfig(trials=400, params=WEAK_LWE, seed=0, distinguisher=name)
    result = run_ind_cpa_game(cfg)
    assert result.advantage > 0.5 and result.ci_low > 0, result.summary()


def test_game_result_report_strings():
    cfg = GameConfig(trials=200, params=GAME_LWE, seed=10)
    result = run_ind_cpa_game(cfg, FairCoin())
    assert "advantage" in result.summary()
    assert result.csv_row().startswith("fair_coin,200,")


# -- eavesdropper channel ----------------------------------------------------


def test_eve_infinite_snr_is_identity():
    c = stream(1).integers(0, 4093, size=(2, 64))
    eve = receive_drawn(c, build_constellation(4093, 1.0), math.inf, 5.0, 3, [0, 1])
    assert np.array_equal(eve, c)


def test_eve_same_snr_same_seed_matches_bob():
    # one receiver for both: row i sees the stream of its message index
    cons = build_constellation(257, 1.0)
    c = stream(4).integers(0, 257, size=(3, 16))
    sigma2 = noise_variance(10.0, 1.0)
    eve = receive_drawn(c, cons, 10.0, 5.0, 6, [4, 0, 9])
    for row, index in enumerate([4, 0, 9]):
        bob = soft_demodulate(awgn_one(modulate(c[row], cons), sigma2,
                                       stream(6, index)), cons, sigma2, 5.0)
        assert np.array_equal(eve[row], bob)
    with pytest.raises(ValueError):
        receive_drawn(c, cons, 10.0, 5.0, 6, [4, 0])


# -- chosen-plaintext attack -------------------------------------------------


def test_attack_rejects_secret_material(attack_setup):
    _, qcfg, keys = attack_setup
    with pytest.raises(TypeError):
        run_cpa_attack(make_attack_cfg(), ATTACK_SPEC, {}, keys, qcfg)


def test_attack_rejects_a_quantizer_for_another_modulus(attack_setup):
    pk, _, _ = attack_setup
    with pytest.raises(ValueError,
                       match="quantizer modulus 251 is not the key modulus 4093"):
        run_cpa_attack(make_attack_cfg(), ATTACK_SPEC, {}, pk, QuantizerConfig(251, 16))


def test_fresh_errors_defeat_linear_adversary(attack_setup):
    pk, qcfg, _ = attack_setup
    report = run_cpa_attack(make_attack_cfg(), ATTACK_SPEC, {}, pk, qcfg)
    assert report.mse_ratio >= 0.95


def test_sabotage_reused_errors_attack_succeeds(attack_setup):
    pk, qcfg, _ = attack_setup
    report = run_cpa_attack(make_attack_cfg(error_mode="reused"),
                            ATTACK_SPEC, {}, pk, qcfg)
    assert report.mse_ratio < 0.5


def test_sabotage_repeats_one_drawn_triple(attack_setup, monkeypatch):
    # reused mode draws message 0's triple once, forms its pad once and hands
    # every pair its own copy of the pad; fresh mode draws one triple per pair
    pk, qcfg, _ = attack_setup
    drawn, padded, sent = [], [], []

    def counting(rngs, params):
        drawn.append(len(rngs))
        return error_rows(rngs, params)

    def padding(key, errors):
        padded.append(len(errors.e1))
        return pad(key, errors)

    def spy(z, pads, params):
        sent.append(pads)
        return encrypt(z, pads, params)
    error_rows, pad, encrypt = lwe.error_rows, security.pad, security.encrypt
    monkeypatch.setattr(lwe, "error_rows", counting)
    monkeypatch.setattr(security, "pad", padding)
    monkeypatch.setattr(security, "encrypt", spy)
    for mode in ("reused", "fresh"):
        run_cpa_attack(make_attack_cfg(error_mode=mode, pairs=40), ATTACK_SPEC, {}, pk, qcfg)
    assert drawn == padded == [1, 40]
    # both modes key the errors by the same seed: fresh row 0 is message 0's pad
    reused, fresh = sent
    for got, own in ((reused.c, fresh.c), (reused.d, fresh.d)):
        assert got.shape == own.shape
        assert all(np.array_equal(row, own[0]) for row in got)
        # every row is its own copy: writing one leaves its repeats unchanged
        got[0] += 1
        assert np.array_equal(got[1], own[0])


def test_known_error_seed_breaks_the_scheme(attack_setup):
    # handing the adversary the error seed lets it strip the error layer
    pk, qcfg, _ = attack_setup
    report = run_cpa_attack(make_attack_cfg(error_mode="known_seed"),
                            ATTACK_SPEC, {}, pk, qcfg)
    assert report.mse_ratio < 0.1


def test_noisier_eve_channel_never_helps(attack_setup):
    # in the reused-error configuration the attack works at infinite SNR;
    # a 0 dB observation must degrade it
    pk, qcfg, _ = attack_setup
    clean = run_cpa_attack(make_attack_cfg(error_mode="reused", pairs=600),
                           ATTACK_SPEC, {}, pk, qcfg)
    noisy = run_cpa_attack(make_attack_cfg(error_mode="reused", pairs=600,
                                           snr_e_db=0.0),
                           ATTACK_SPEC, {}, pk, qcfg)
    assert noisy.mse_ratio >= clean.mse_ratio


def test_attack_report_strings(attack_setup):
    pk, qcfg, _ = attack_setup
    report = run_cpa_attack(make_attack_cfg(pairs=200), ATTACK_SPEC, {}, pk, qcfg)
    assert "baseline" in report.summary()
    assert report.csv_row().startswith("linear,fresh,")


def per_name_fit_mlp(x, y, epochs, rng):
    """Reference: the MLP adversary's loop with gradients in new arrays and
    Kingma & Ba's update one parameter array at a time."""
    shapes = codec.dense_shapes([x.shape[1], security.MLP_HIDDEN, y.shape[1]], "adv")
    params = dict(codec.init_arrays(shapes, rng))
    m, v, step = {}, {}, 0
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for s in range(0, len(order), 64):
            sel = order[s:s + 64]
            out, cache = codec.dense_forward(params, "adv", x[sel])
            _, grad_out = codec.mse_loss(y[sel], out)
            grads, _ = allocating_dense_backward(params, "adv", cache, grad_out)
            step += 1
            params = per_name_adam_step(params, grads, m, v, step, lr=1e-3)
    return params


def test_fit_mlp_matches_per_name_oracle_bit_for_bit():
    rng = stream(41)
    x, y = rng.standard_normal((150, 12)), rng.uniform(0.0, 1.0, (150, 16))
    got = security._fit_mlp(x, y, 3, stream(42))
    want = per_name_fit_mlp(x, y, 3, stream(42))
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name].view(np.int64), want[name].view(np.int64))


def test_attack_config_validation():
    for adversary in ("cnn", "mean_predictor"):
        with pytest.raises(ValueError):
            make_attack_cfg(adversary=adversary)
    with pytest.raises(ValueError):
        make_attack_cfg(error_mode="replay")
    with pytest.raises(ValueError):
        make_attack_cfg(pairs=0)
