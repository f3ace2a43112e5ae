import math

import numpy as np
import pytest

from securejscc.codec import CodecSpec
from securejscc.datasets import DatasetSpec
from securejscc.lwe import LweParams, derive_errors, encrypt, keygen
from securejscc.modem import (awgn, build_constellation, modulate,
                              noise_variance, receive, soft_demodulate)
from securejscc.quantizer import QuantizerConfig
from securejscc.rng import spawn_seed, stream
from securejscc.security import (DISTINGUISHERS, GAME_CHUNK_ENTRIES,
                                 AttackConfig, GameConfig, TrainedClassifier,
                                 default_plaintext_pair, run_cpa_attack,
                                 run_ind_cpa_game)

GAME_LWE = LweParams(p=257, n1=32, n2=32, sigma_s=8.87, k=16)
# a sampler this narrow draws only zeros: every challenge is c == m_b
BROKEN_LWE = LweParams(p=257, n1=32, n2=32, sigma_s=1e-3, k=16)
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
    """Guessing baseline; ignores the challenge entirely."""

    name = "fair_coin"

    def prepare(self, pk, m0, m1, rng):
        pass

    def guess(self, c, rng):
        return int(rng.integers(0, 2))


class LeakyDistinguisher:
    """Known accuracy ``q`` on :data:`BROKEN_LWE`: reads the bit off the
    challenge and flips it with probability ``1 - q``."""

    def __init__(self, accuracy: float):
        self.accuracy = accuracy
        self.name = f"leaky_q{accuracy}"

    def prepare(self, pk, m0, m1, rng):
        self.m = (m0, m1)

    def guess(self, c, rng):
        bit = int(np.array_equal(c, self.m[1]))
        assert np.array_equal(c, self.m[bit]), "the challenge carries errors"
        return bit if rng.random() < self.accuracy else 1 - bit


class SmallClassifier(TrainedClassifier):
    """The trained distinguisher on half the data and half the epochs."""

    train_size = 128
    epochs = 10


def serial_game_correct(cfg: GameConfig, distinguisher) -> int:
    """The game one trial at a time: the oracle for the chunked game."""
    m0, m1 = default_plaintext_pair(cfg.params, cfg.n_levels)
    correct = 0
    for t in range(cfg.trials):
        trial_rng = stream(cfg.seed, t)
        keys = keygen(cfg.params, spawn_seed(trial_rng), spawn_seed(trial_rng))
        pk = keys.public()
        error_seed = spawn_seed(trial_rng)
        adv_seed = spawn_seed(trial_rng)
        b = int(trial_rng.integers(0, 2))
        distinguisher.prepare(pk, m0, m1, stream(adv_seed))
        ct = encrypt(m1 if b else m0, pk, derive_errors(error_seed, 0, cfg.params))
        correct += int(distinguisher.guess(ct.c, stream(adv_seed, 1)) == b)
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


@pytest.mark.parametrize("trials", [100, 131])
@pytest.mark.parametrize("make, params", [
    (DISTINGUISHERS["marginal_chisq"], GAME_LWE),
    (SmallClassifier, GAME_LWE),
    (lambda: LeakyDistinguisher(0.75), BROKEN_LWE),
    (FairCoin, GAME_LWE),
])
def test_chunked_game_matches_serial_oracle(make, params, trials):
    # 64-trial chunks at n1 = n2 = 32: neither count is a multiple
    assert GAME_CHUNK_ENTRIES // (params.n1 * params.n2) == 64
    cfg = GameConfig(trials=trials, params=params, seed=trials)
    result = run_ind_cpa_game(cfg, make())
    assert result.correct == serial_game_correct(cfg, make())


def test_chunked_game_matches_serial_oracle_one_trial_per_chunk():
    params = LweParams(p=4093, n1=257, n2=256, sigma_s=8.87, k=8)
    assert GAME_CHUNK_ENTRIES // (params.n1 * params.n2) == 0  # chunks of one
    cfg = GameConfig(trials=100, params=params, seed=3)
    assert (run_ind_cpa_game(cfg).correct
            == serial_game_correct(cfg, DISTINGUISHERS["marginal_chisq"]()))


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


def test_trained_classifier_honest_near_zero():
    cfg = GameConfig(trials=600, params=GAME_LWE, seed=9)
    result = run_ind_cpa_game(cfg, SmallClassifier())
    assert abs(result.advantage) < 0.12


def test_game_result_report_strings():
    cfg = GameConfig(trials=200, params=GAME_LWE, seed=10)
    result = run_ind_cpa_game(cfg, FairCoin())
    assert "advantage" in result.summary()
    assert result.csv_row().startswith("fair_coin,200,")


# -- eavesdropper channel ----------------------------------------------------


def test_eve_infinite_snr_is_identity():
    c = stream(1).integers(0, 4093, size=(2, 64))
    eve = receive(c, None, noise_variance(math.inf, 1.0), 5.0, 3, [0, 1])
    assert np.array_equal(eve, c)


def test_eve_same_snr_same_seed_matches_bob():
    # one receiver for both: row i sees the stream of its message index
    cons = build_constellation(257, 1.0)
    c = stream(4).integers(0, 257, size=(3, 16))
    sigma2 = noise_variance(10.0, 1.0)
    eve = receive(c, cons, sigma2, 5.0, 6, [4, 0, 9])
    for row, index in enumerate([4, 0, 9]):
        bob = soft_demodulate(awgn(modulate(c[row], cons), sigma2,
                                   stream(6, index)), cons, sigma2, 5.0)
        assert np.array_equal(eve[row], bob)
    with pytest.raises(ValueError):
        receive(c, cons, sigma2, 5.0, 6, [4, 0])


# -- chosen-plaintext attack -------------------------------------------------


def test_attack_rejects_secret_material(attack_setup):
    _, qcfg, keys = attack_setup
    with pytest.raises(TypeError):
        run_cpa_attack(make_attack_cfg(), ATTACK_SPEC, {}, keys, qcfg)


def test_fresh_errors_defeat_linear_adversary(attack_setup):
    pk, qcfg, _ = attack_setup
    report = run_cpa_attack(make_attack_cfg(), ATTACK_SPEC, {}, pk, qcfg)
    assert report.mse_ratio >= 0.95


def test_sabotage_reused_errors_attack_succeeds(attack_setup):
    pk, qcfg, _ = attack_setup
    report = run_cpa_attack(make_attack_cfg(error_mode="reused"),
                            ATTACK_SPEC, {}, pk, qcfg)
    assert report.mse_ratio < 0.5


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


def test_attack_config_validation():
    for adversary in ("cnn", "mean_predictor"):
        with pytest.raises(ValueError):
            make_attack_cfg(adversary=adversary)
    with pytest.raises(ValueError):
        make_attack_cfg(error_mode="replay")
    with pytest.raises(ValueError):
        make_attack_cfg(pairs=0)
