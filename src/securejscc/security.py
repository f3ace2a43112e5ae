"""Security harness: indistinguishability game and chosen-plaintext attack.

The game follows the standard public-key formulation: fresh keys per
trial, a fair hidden bit, an adversary-chosen plaintext pair, and a
distinguisher that sees only public material plus the challenge
ciphertext. The advantage estimate is ``2 * accuracy - 1`` with a binomial
confidence interval.

The chosen-plaintext attack trains a regression adversary on
(image, ciphertext) pairs collected at infinite eavesdropper SNR and
compares it against the mean-image baseline. A sabotage mode that reuses
one error triple across all messages must make the attack succeed; the
harness is only trusted because it demonstrably detects that broken
configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import codec, metrics
from .datasets import DatasetSpec, synthesize_dataset
from .lwe import (Ciphertext, ErrorTriple, LweParams, PublicKey, _gaussian_rows,
                  centered, derive_error_rows, encrypt, error_rows, keygen_stack,
                  lattice_product, pad, residues)
from .modem import (SIGMA_L_DEFAULT, Db, build_constellation, channel_noise,
                    noise_variance, receive)
from .quantizer import QuantizerConfig, build_centroids, check_levels, hard_quantize
from .rng import bounded, halves, raw_words, spawn_seed, stream, streams

FEATURE_NOTE = ("features per symbol value v: [v/p, cos(2*pi*v/p), sin(2*pi*v/p)] "
                "(raw residue plus circular embedding)")


def default_plaintext_pair(params: LweParams,
                           n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """All-zeros versus all-top-centroid: the most distinguishable pair."""
    cents = build_centroids(params.p, n_levels)
    m0 = np.zeros(params.k, dtype=np.int64)
    m1 = np.full(params.k, cents[-1], dtype=np.int64)
    return m0, m1


# -- distinguishers ----------------------------------------------------------


class MarginalChiSquare:
    """Pick the hypothesis whose shifted residues look more uniform.

    Coarse-bins ``(c - m_b) mod p`` and compares goodness-of-fit statistics
    against the uniform histogram; a tie falls back to a coin flip, the
    bit ``rng.integers(0, 2)`` draws from its trial's ``(adv_seed, 1)`` stream.
    """

    name = "marginal_chisq"
    n_bins = 16

    def prepare(self, params, B, m0, m1, adv_seeds):
        self.p = params.p
        self.m = np.stack([m0, m1])
        self.bins = min(self.n_bins, self.p)

    def guess(self, c, adv_seeds):
        # one histogram row per (trial, hypothesis), counted in one call
        idx = residues(c[:, None] - self.m, self.p) * self.bins // self.p
        rows = self.bins * np.arange(2 * len(c)).reshape(-1, 2, 1)
        counts = np.bincount((idx + rows).ravel(), minlength=rows.size * self.bins)
        expected = c.shape[1] / self.bins
        stats = ((counts.reshape(-1, 2, self.bins) - expected) ** 2).sum(-1) / expected
        bits = (stats[:, 1] < stats[:, 0]).astype(np.int64)
        ties = np.flatnonzero(stats[:, 0] == stats[:, 1])
        coins = raw_words(streams([adv_seeds[t] for t in ties], 1), 1)
        bits[ties] = bounded(halves(coins)[:, 0], 2)[0]
        return bits


class TrainedClassifier:
    """Logistic distinguisher fitted on self-generated ciphertexts.

    Knowing the public key, the adversary encrypts both candidate
    plaintexts many times with its own error samples and fits a logistic
    model per trial; each challenge is then classified by its trial's model.
    """

    name = "trained_classifier"

    train_size = 256
    epochs = 20
    lr = 0.5
    l2 = 1e-2
    # features fitted together: 5 trials at k = 16, ~0.5 MB
    fit_entries = 1 << 16

    def _features(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``[c, c - m0, c - m1]`` centered mod p, over p, into ``out``: each
        difference lies in (-p, p), so it is one lookup in ``self.table``
        (always in range: "clip" skips the buffered write "raise" makes)."""
        np.take(self.table, c[..., None, :] - self.offsets, mode="clip",
                out=out.reshape(*c.shape[:-1], *self.offsets.shape))
        return out

    def prepare(self, params, B, m0, m1, adv_seeds):
        p = params.p
        # table[v + p - 1] = centered(v, p) / p for v in (-p, p)
        self.table = centered(np.arange(-(p - 1), p), p) / p
        self.offsets = np.stack([np.zeros_like(m0), m0, m1]) - (p - 1)
        n, n1, k = self.train_size, params.n1, params.k
        labels = np.tile([0, 1], n // 2 + 1)[:n]
        plain, y = np.stack([m0, m1])[labels], labels.astype(np.float64)
        self.w, self.b = np.zeros((len(B), 3 * k)), np.zeros(len(B))
        # draws and features one trial at a time into a stack; one fit per stack
        x = np.empty((max(1, self.fit_entries // (n * 3 * k)), n, 3 * k))
        adversary = iter(streams(adv_seeds, 0))
        for s in range(0, len(B), len(x)):
            xs, w, b = x[:len(B) - s], self.w[s:s + len(x)], self.b[s:s + len(x)]
            for xt, Bt in zip(xs, B[s:]):
                e = _gaussian_rows(params.sigma_s, [next(adversary)],
                                   (n * (n1 + k),))[0]
                e1, e3 = np.split(e, [n * n1])
                c = lattice_product(e1.reshape(n, n1), Bt) + e3.reshape(n, k)
                self._features(residues(c + plain, p), xt)
            for _ in range(self.epochs):
                logits = (xs @ w[:, :, None])[:, :, 0] + b[:, None]
                err = 1.0 / (1.0 + np.exp(-logits)) - y
                w -= self.lr * ((xs.transpose(0, 2, 1) @ err[:, :, None])[:, :, 0] / n
                                + self.l2 * w)
                b -= self.lr * err.mean(axis=1)

    def guess(self, c, adv_seeds):
        f = self._features(c, np.empty((len(c), 3 * c.shape[1])))
        logits = (f[:, None] @ self.w[:, :, None])[:, 0, 0] + self.b
        return (logits >= 0.0).astype(np.int64)


DISTINGUISHERS = {
    "marginal_chisq": MarginalChiSquare,
    "trained_classifier": TrainedClassifier,
}


# -- the game ----------------------------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    trials: int
    params: LweParams
    n_levels: int = 16
    seed: int = 0
    distinguisher: str = "marginal_chisq"

    def __post_init__(self):
        if self.trials < 100:
            raise ValueError(f"need at least 100 trials, got {self.trials}")
        if self.distinguisher not in DISTINGUISHERS:
            raise ValueError(f"unknown distinguisher {self.distinguisher!r}")
        check_levels(self.params.p, self.n_levels, "the game's lwe.p")


@dataclass(frozen=True)
class GameResult:
    distinguisher: str
    trials: int
    correct: int
    accuracy: float
    advantage: float
    ci_low: float
    ci_high: float

    def summary(self) -> str:
        return (f"distinguisher={self.distinguisher} trials={self.trials} "
                f"accuracy={self.accuracy:.4f} advantage={self.advantage:+.4f} "
                f"ci95=[{self.ci_low:+.4f}, {self.ci_high:+.4f}]")

    def csv_row(self) -> str:
        return (f"{self.distinguisher},{self.trials},{self.correct},"
                f"{self.accuracy:.6f},{self.advantage:.6f},"
                f"{self.ci_low:.6f},{self.ci_high:.6f}")


GAME_CSV_HEADER = "distinguisher,trials,correct,accuracy,advantage,ci_low,ci_high"


# lattice entries (n1 * n2 per trial) whose keys a chunk of game trials
# generates together: 32 trials at n1 = n2 = 32, 1 at 192 x 192, so each
# stacked key array stays near 256 KB whatever the trial count
GAME_CHUNK_ENTRIES = 1 << 15


def trial_draws(rngs) -> np.ndarray:
    """Each trial's key, lattice, error and adversary seeds and its bit: a
    (T, 5) int64 array, one row from five raw words of each stream.

    They are the values of ``rng.integers(0, 2**63, size=4)`` and then
    ``rng.integers(0, 2)``: a bounded draw over 2**63 values is one raw word
    shifted right by one, and the bit is the 32-bit bounded draw of the low
    half of the next word, its top bit.
    """
    raw = raw_words(rngs, 5)
    raw[:, 4] = bounded(halves(raw)[:, 8], 2)[0]
    raw[:, :4] >>= np.uint64(1)
    return raw.view(np.int64)


def run_ind_cpa_game(cfg: GameConfig, distinguisher=None) -> GameResult:
    """Estimate the distinguisher's advantage over ``cfg.trials`` games.

    Each trial draws fresh keys, a fair bit, and a fresh error triple for
    the challenge encryption. Trials are keyed by ``(seed, trial)`` so they
    are independent and order-insensitive: a chunk of trials generates its
    keys and challenges as stacked products, and the distinguisher prepares
    on and guesses the whole chunk.
    """
    if distinguisher is None:
        distinguisher = DISTINGUISHERS[cfg.distinguisher]()
    params = cfg.params
    m0, m1 = default_plaintext_pair(params, cfg.n_levels)
    chunk = max(1, GAME_CHUNK_ENTRIES // (params.n1 * params.n2))
    correct = 0
    for start in range(0, cfg.trials, chunk):
        trials = streams(cfg.seed, range(start, min(start + chunk, cfg.trials)))
        key_seeds, lattice_seeds, error_seeds, adv_seeds, bits = trial_draws(trials).T
        _, B, A = keygen_stack(params, key_seeds, lattice_seeds)
        errors = error_rows(streams(error_seeds, 0), params)
        # one key per trial: (T, 1, .) rows under the stacked (T, ., .) keys
        pads = pad(PublicKey(params, B, A, lattice_seed=lattice_seeds),
                   ErrorTriple(errors.e1[:, None], errors.e2[:, None],
                               errors.e3[:, None]))
        challenge = encrypt(np.where(bits[:, None, None], m1, m0), pads, params).c[:, 0]
        distinguisher.prepare(params, B, m0, m1, adv_seeds)
        correct += int((distinguisher.guess(challenge, adv_seeds) == bits).sum())
    acc = correct / cfg.trials
    se = math.sqrt(max(acc * (1.0 - acc), 0.0) / cfg.trials)
    return GameResult(
        distinguisher=distinguisher.name,
        trials=cfg.trials, correct=correct, accuracy=acc,
        advantage=2.0 * acc - 1.0,
        ci_low=2.0 * (acc - 1.96 * se) - 1.0,
        ci_high=2.0 * (acc + 1.96 * se) - 1.0)


# -- chosen-plaintext attack -------------------------------------------------


ERROR_MODES = ("fresh", "reused", "known_seed")
ADVERSARIES = ("linear", "mlp")
MLP_HIDDEN = 64  # hidden width of the mlp adversary
TEST_FRACTION = 0.2  # share of the pairs held out to score the adversary


@dataclass(frozen=True)
class AttackConfig:
    pairs: int
    dataset: DatasetSpec
    adversary: str = "linear"
    epochs: int = 30
    error_mode: str = "fresh"
    snr_e_db: Db = math.inf
    seed: int = 0

    def __post_init__(self):
        if self.adversary not in ADVERSARIES:
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.error_mode not in ERROR_MODES:
            raise ValueError(f"unknown error mode {self.error_mode!r}")
        if self.pairs < 1:
            raise ValueError("need at least one (image, ciphertext) pair")
        if self.epochs < 1:
            raise ValueError(f"config key 'attack.epochs' must be at least 1, "
                             f"got {self.epochs}")
        if self.n_test >= self.pairs:
            raise ValueError("test fraction leaves no training pairs")
        noise_variance(self.snr_e_db, 1.0, "config key 'attack.snr_e_db'")

    @property
    def n_test(self) -> int:
        """Pairs held out to score the adversary: at least one."""
        return max(1, int(round(self.pairs * TEST_FRACTION)))


@dataclass(frozen=True)
class AttackReport:
    adversary: str
    error_mode: str
    snr_e_db: float
    n_train: int
    n_test: int
    adversary_mse: float
    baseline_mse: float
    adversary_psnr: float
    baseline_psnr: float
    adversary_ssim: float
    baseline_ssim: float

    @property
    def mse_ratio(self) -> float:
        return self.adversary_mse / self.baseline_mse

    def summary(self) -> str:
        return (f"adversary={self.adversary} errors={self.error_mode} "
                f"snr_e={self.snr_e_db} dB pairs={self.n_train}+{self.n_test}\n"
                f"  adversary: mse={self.adversary_mse:.2f} "
                f"psnr={self.adversary_psnr:.2f} dB ssim={self.adversary_ssim:.4f}\n"
                f"  mean-image baseline: mse={self.baseline_mse:.2f} "
                f"psnr={self.baseline_psnr:.2f} dB ssim={self.baseline_ssim:.4f}\n"
                f"  mse ratio adversary/baseline = {self.mse_ratio:.3f}\n"
                f"  {FEATURE_NOTE}")

    def csv_row(self) -> str:
        return (f"{self.adversary},{self.error_mode},{self.snr_e_db},"
                f"{self.n_train},{self.n_test},{self.adversary_mse:.6f},"
                f"{self.baseline_mse:.6f},{self.mse_ratio:.6f}")


ATTACK_CSV_HEADER = ("adversary,error_mode,snr_e_db,n_train,n_test,"
                     "adversary_mse,baseline_mse,mse_ratio")


def _require_public(key) -> None:
    # audit: the attack must never see secrets, which any PublicKey subclass may carry
    if type(key) is not PublicKey:
        raise TypeError("the chosen-plaintext attack accepts public keys only")


def _circular_features(values: np.ndarray, p: int) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    angle = 2.0 * np.pi * v / p
    return np.concatenate([v / p, np.cos(angle), np.sin(angle)], axis=-1)


def _fit_linear(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    lam = 1e-3 * x.shape[0]
    gram = xb.T @ xb + lam * np.eye(xb.shape[1])
    return np.linalg.solve(gram, xb.T @ y)


def _predict_linear(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))]) @ w


def _fit_mlp(x, y, epochs, rng):
    params = codec.init_arrays(codec.dense_shapes([x.shape[1], MLP_HIDDEN, y.shape[1]],
                                                  "adv"), rng)
    grads, moments = codec.FlatArrays(params.shapes), np.zeros((2, params.vector.size))
    step = 0
    batch = 64
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for s in range(0, len(order), batch):
            sel = order[s:s + batch]
            out, cache = codec.dense_forward(params, "adv", x[sel])
            _, grad_out = codec.mse_loss(y[sel], out)
            codec.dense_backward(params, "adv", cache, grad_out, grads)
            step += 1
            params = codec.FlatArrays(params.shapes, codec.adam_step(
                params.vector, grads.vector, moments, step, lr=1e-3))
    return params


def run_cpa_attack(cfg: AttackConfig, spec: codec.CodecSpec, codec_params: dict,
                   public_key: PublicKey, qcfg: QuantizerConfig) -> AttackReport:
    """Train the configured adversary on (image, ciphertext) pairs.

    In ``fresh`` mode every message uses an independent error triple the
    adversary does not know. ``reused`` gives every pair its own copy of
    the pad of message 0's triple (the sabotage control), formed once.
    ``known_seed`` keeps fresh errors but hands the adversary the shared
    error seed, letting it strip the error layer off each ciphertext
    before fitting.
    """
    _require_public(public_key)
    params = public_key.params
    params.check_moduli(quantizer=qcfg.p)
    rng = stream(cfg.seed)
    data_seed = spawn_seed(rng)
    error_seed = spawn_seed(rng)
    eve_seed = spawn_seed(rng)
    fit_seed = spawn_seed(rng)

    images = np.stack(synthesize_dataset(replace(cfg.dataset, count=cfg.pairs),
                                         data_seed))
    x = images.reshape(cfg.pairs, -1)

    z, _ = codec.encode(x, spec, codec_params)
    z_bar = hard_quantize(z, qcfg)
    messages = np.arange(cfg.pairs)
    if cfg.error_mode == "reused":
        first = pad(public_key, derive_error_rows(error_seed, [0], params))
        pads = Ciphertext(*(np.repeat(a, cfg.pairs, axis=0) for a in (first.c, first.d)))
    else:
        pads = pad(public_key, derive_error_rows(error_seed, messages, params))
    ct = encrypt(z_bar, pads, params)
    # Eve's channel: the same receiver as Bob's, without the secret key
    cons = build_constellation(params.p)
    noise = channel_noise(cons, cfg.snr_e_db, params.k, eve_seed, messages)
    observations = receive(ct.c, cons, *noise, SIGMA_L_DEFAULT)
    if cfg.error_mode == "known_seed":
        # the seed lets the adversary remove the error layer, its pad, exactly
        observations = np.mod(observations - pads.c, params.p)

    n_test = cfg.n_test
    n_train = cfg.pairs - n_test
    feats = _circular_features(observations, params.p)
    x_train = x[:n_train]
    f_train, f_test = feats[:n_train], feats[n_train:]

    baseline_pred = np.tile(x_train.mean(axis=0), (n_test, 1))
    if cfg.adversary == "linear":
        w = _fit_linear(f_train, x_train)
        pred = np.clip(_predict_linear(w, f_test), 0.0, 255.0)
    else:
        net = _fit_mlp(f_train, x_train / 255.0, cfg.epochs, stream(fit_seed))
        out, _ = codec.dense_forward(net, "adv", f_test)
        pred = np.clip(255.0 * out, 0.0, 255.0)

    test = images[n_train:]
    (adv_mse, adv_psnr, adv_ssim), (base_mse, base_psnr, base_ssim) = (
        [float(np.mean(score(test, predicted.reshape(test.shape))))
         for score in (metrics.mse, metrics.psnr, metrics.ssim)]
        for predicted in (pred, baseline_pred))
    return AttackReport(
        adversary=cfg.adversary, error_mode=cfg.error_mode,
        snr_e_db=cfg.snr_e_db, n_train=n_train, n_test=n_test,
        adversary_mse=adv_mse, baseline_mse=base_mse,
        adversary_psnr=adv_psnr, baseline_psnr=base_psnr,
        adversary_ssim=adv_ssim, baseline_ssim=base_ssim)
