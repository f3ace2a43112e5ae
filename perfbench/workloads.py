"""The benchmark's workloads.

Each workload builds its inputs from the run seed, makes one untimed
warm-up call of each kind, then plays rounds: one call into a public entry
point of the library per round. A workload has one or more kinds of round,
played in turn, each named by its rate (``round_items`` maps the name to the
items of that kind in one *cycle*, the unit of the workload's throughput).
A round returns its kind and how many items it completed (messages,
optimizer steps, game trials or attack pairs) and records its correctness
checks. ``reference`` names the kernels of reference.py that resemble the
workload's work. README.md next to this file says why each workload exists
and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# wrapped functions are called through their module, where the tracer
# replaces them
from securejscc import datasets, lwe, pipeline, security, training
from securejscc.codec import CodecSpec
from securejscc.datasets import DatasetSpec
from securejscc.lwe import LweParams
from securejscc.modem import build_constellation
from securejscc.quantizer import QuantizerConfig

SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
AVG_POWER = 1.0
SIGMA_L = 5.0
# two-sided normal quantile for a one-in-a-million false alarm: a secure
# scheme fails the advantage check once per 10^6 runs, whatever the seed
ADVANTAGE_Z = 4.89
ADVANTAGE_LIMIT = 0.05


def derive_seed(seed: int, *tags) -> int:
    """A 63-bit seed for one input, fixed by the run seed and the tags."""
    text = ":".join(str(t) for t in (seed, *tags)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(),
                          "little") >> 1


class Checks:
    """Correctness checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class Sweep:
    """Identity codec at the default operating point over the SNR grid, one
    image per round, the images in turn."""

    item = "message"
    round_items = {"sweep_msg_per_s": 1}
    # soft demodulation over large arrays is ~92% of the time
    reference = ("vector",)
    trace_block = 8

    def __init__(self, seed: int, smoke: bool):
        self.params = LweParams(p=4093, n1=192, n2=192, sigma_s=8.87, k=256)
        self.keys = lwe.keygen(self.params, derive_seed(seed, "key"),
                               derive_seed(seed, "lattice"))
        self.cons = build_constellation(self.params.p, AVG_POWER)
        self.qcfg = QuantizerConfig(self.params.p, 16)
        self.spec = CodecSpec(kind="identity", input_shape=(16, 16, 1), k=256,
                              latent_scale=self.params.p / 256.0)
        count = 1 if smoke else 8
        self.images = datasets.synthesize_dataset(
            DatasetSpec("blob", count, 16, 16, 1), derive_seed(seed, "data"))
        self.error_seed = derive_seed(seed, "error")
        self.channel_seed = derive_seed(seed, "channel")
        self.first_csv: dict[int, str] = {}
        self.psnrs: list[float] = []
        self.messages = 0

    def _sweep(self, images):
        records = pipeline.sweep(images, self.spec, {}, self.keys, self.qcfg,
                                 self.cons, list(SNR_GRID_DB), SIGMA_L,
                                 self.error_seed, self.channel_seed)
        return records, pipeline.records_to_csv(records)

    def warm_up(self) -> None:
        self._sweep(self.images[:1])

    def play(self, index: int, checks: Checks) -> tuple[str, int]:
        image = index % len(self.images)
        records, csv = self._sweep(self.images[image:image + 1])
        if image not in self.first_csv:
            self.first_csv[image] = csv
        else:
            checks.add("sweep: repeated sweep gives byte-identical CSV",
                       csv == self.first_csv[image])
        psnrs = [r.psnr for r in records]
        checks.add("sweep: every PSNR is finite",
                   all(math.isfinite(v) for v in psnrs))
        self.psnrs.extend(psnrs)
        self.messages += len(records)
        return "sweep_msg_per_s", len(records)

    def finish(self, checks: Checks) -> dict:
        """Run-level checks; returns the outcome values, name -> (value, unit)."""
        return {"sweep_psnr_db": (float(np.mean(self.psnrs)), "dB")}


class TrainToy:
    """The toy dense codec trained through the chain for a fixed step budget."""

    item = "step"
    round_items = {"train_steps_per_s": 1}
    reference = ("vector", "interpreter")
    trace_block = 2

    def __init__(self, seed: int, smoke: bool):
        self.params = LweParams(p=251, n1=16, n2=16, sigma_s=1.5, k=16)
        keys = lwe.keygen(self.params, derive_seed(seed, "key"),
                          derive_seed(seed, "lattice"))
        self.spec = CodecSpec(kind="mlp", input_shape=(8, 8, 1), k=16,
                              latent_scale=float(self.params.p),
                              hidden_sizes=(32,))
        n_train, n_val = (100, 20) if smoke else (500, 100)
        images = datasets.synthesize_dataset(
            DatasetSpec("blob", n_train + n_val, 8, 8, 1),
            derive_seed(seed, "data"))
        self.train_images, self.val_images = images[:n_train], images[n_train:]
        qcfg = QuantizerConfig(self.params.p, 16)
        cons = build_constellation(self.params.p, AVG_POWER)
        self.ctx = training.TrainContext(
            spec=self.spec, keys=keys, qcfg=qcfg, cons=cons, snr_db=10.0,
            sigma_l=SIGMA_L, error_seed=derive_seed(seed, "error"),
            channel_seed=derive_seed(seed, "channel"))
        self.eval_ctx = training.TrainContext(
            spec=self.spec, keys=keys, qcfg=qcfg, cons=cons, snr_db=10.0,
            sigma_l=SIGMA_L, error_seed=derive_seed(seed, "val_error"),
            channel_seed=derive_seed(seed, "val_channel"))
        self.init_seed = derive_seed(seed, "init")
        self.shuffle_seed = derive_seed(seed, "shuffle")
        # two epochs of 50 steps (3 of 10 in smoke mode)
        self.steps = 30 if smoke else 100
        self.final_val: list[float] = []
        self.messages = 0

    def _train(self, steps: int):
        state = training.init_train_state(self.spec, seed=self.init_seed,
                                          learning_rate=3e-4)
        return training.train_codec(
            self.train_images, self.val_images, self.ctx, state,
            max_steps=steps, batch_size=10, shuffle_seed=self.shuffle_seed,
            eval_ctx=self.eval_ctx)

    def warm_up(self) -> None:
        self._train(self.steps)

    def play(self, index: int, checks: Checks) -> tuple[str, int]:
        result = self._train(self.steps)
        checks.add("train_toy: final validation loss below the first epoch's",
                   result.val_losses[-1] < result.val_losses[0])
        self.final_val.append(result.val_losses[-1])
        self.messages += (result.state.messages_sent
                          + len(result.val_losses) * len(self.val_images))
        return "train_steps_per_s", result.state.step

    def finish(self, checks: Checks) -> dict:
        return {"train_val_mse": (float(np.median(self.final_val)), "pixel^2")}


class Security:
    """The security harness: IND-CPA games with both honest distinguishers,
    then the linear chosen-plaintext attack with fresh errors and with the
    reused-error sabotage control. Keys are fresh every game trial. Each game
    is a kind of round, the attack in both modes a third; a cycle is one
    round of each."""

    item = "cycle"
    reference = ("vector", "interpreter")
    games = (("marginal_chisq", 1000), ("trained_classifier", 100))
    attack_modes = ("fresh", "reused")
    trace_block = 3

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.game_params = LweParams(p=257, n1=32, n2=32, sigma_s=8.87, k=16)
        attack_params = LweParams(p=4093, n1=192, n2=192, sigma_s=8.87, k=64)
        self.public_key = lwe.keygen(attack_params, derive_seed(seed, "key"),
                                     derive_seed(seed, "lattice")).public()
        self.spec = CodecSpec(kind="identity", input_shape=(8, 8, 1), k=64,
                              latent_scale=attack_params.p / 256.0)
        self.qcfg = QuantizerConfig(attack_params.p, 16)
        self.pairs = 200 if smoke else 500
        self.games = [(name, 100 if smoke else trials)
                      for name, trials in self.games]
        self.round_items = {f"game_trials_per_s.{name}": trials
                            for name, trials in self.games}
        self.round_items["attack_pairs_per_s"] = (len(self.attack_modes)
                                                  * self.pairs)
        self.correct = {name: 0 for name, _ in self.games}
        self.played = {name: 0 for name, _ in self.games}
        self.ratios: dict[str, list[float]] = {m: [] for m in self.attack_modes}

    @property
    def trials(self) -> int:
        """Game trials played so far, both distinguishers."""
        return sum(self.played.values())

    def _game(self, name: str, trials: int, seed: int) -> security.GameResult:
        cfg = security.GameConfig(trials=trials, params=self.game_params,
                                  seed=seed, distinguisher=name)
        return security.run_ind_cpa_game(cfg)

    def _attack(self, mode: str, pairs: int, seed: int) -> security.AttackReport:
        cfg = security.AttackConfig(
            adversary="linear", pairs=pairs,
            dataset=DatasetSpec("blob", 0, 8, 8, 1), error_mode=mode, seed=seed)
        return security.run_cpa_attack(cfg, self.spec, {}, self.public_key,
                                       self.qcfg)

    def warm_up(self) -> None:
        seed = derive_seed(self.seed, "warm_up")
        for name, _ in self.games:
            self._game(name, 100, seed)
        for mode in self.attack_modes:
            self._attack(mode, 200, seed)

    def play(self, index: int, checks: Checks) -> tuple[str, int]:
        cycle, kind = divmod(index, len(self.games) + 1)
        if kind < len(self.games):
            name, trials = self.games[kind]
            result = self._game(name, trials,
                                derive_seed(self.seed, "game", name, cycle))
            self.correct[name] += result.correct
            self.played[name] += result.trials
            return f"game_trials_per_s.{name}", trials
        seed = derive_seed(self.seed, "attack", cycle)
        for mode in self.attack_modes:
            self.ratios[mode].append(self._attack(mode, self.pairs, seed).mse_ratio)
        checks.add("attack: fresh errors keep mse_ratio >= 0.95",
                   self.ratios["fresh"][-1] >= 0.95)
        checks.add("attack: reused errors break the scheme, mse_ratio < 0.5",
                   self.ratios["reused"][-1] < 0.5)
        return "attack_pairs_per_s", len(self.attack_modes) * self.pairs

    def finish(self, checks: Checks) -> dict:
        outcomes = {}
        for name, _ in self.games:
            # pooled over every round of the run; see README for the threshold
            acc = self.correct[name] / self.played[name]
            advantage = 2.0 * acc - 1.0
            half_width = ADVANTAGE_Z * 2.0 * math.sqrt(
                acc * (1.0 - acc) / self.played[name])
            checks.add(f"{name}: advantage interval covers 0",
                       abs(advantage) <= half_width)
            if half_width < ADVANTAGE_LIMIT:
                checks.add(f"{name}: |advantage| < {ADVANTAGE_LIMIT}",
                           abs(advantage) < ADVANTAGE_LIMIT)
            outcomes[f"advantage.{name}"] = (advantage, "1")
            outcomes[f"trials.{name}"] = (self.played[name], "count")
        outcomes.update({f"mse_ratio.{mode}": (float(np.median(v)), "1")
                         for mode, v in self.ratios.items()})
        return outcomes


WORKLOADS = {"sweep": Sweep, "train_toy": TrainToy, "security": Security}
