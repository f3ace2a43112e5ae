"""Pipeline configuration: dataclasses plus JSON (de)serialization.

Defaults follow the reference operating point: modulus 4093 with 192x192
lattice dimensions and sampler width 8.87, 16 quantization levels,
demodulator sharpness 5, quantizer sharpness starting at 5, and Adam at
1e-4 with betas (0.9, 0.999). Every random choice is pinned by an explicit
seed in the config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .codec import ADAM_LR, CodecSpec
from .datasets import DatasetSpec
from .lwe import LweParams
from .modem import MAX_CONSTELLATION
from .quantizer import SIGMA_Q_INITIAL
from .security import AttackConfig, GameConfig

DEFAULT_LWE = {"p": 4093, "n1": 192, "n2": 192, "sigma_s": 8.87}
DEFAULT_N_LEVELS = 16
DEFAULT_SIGMA_L = 5.0
DEFAULT_AVG_POWER = 1.0


@dataclass(frozen=True)
class Seeds:
    key: int = 1
    lattice: int = 2
    error: int = 3
    channel: int = 4
    data: int = 5


@dataclass(frozen=True)
class TrainingSettings:
    max_steps: int = 5000
    batch_size: int = 8
    learning_rate: float = ADAM_LR
    loss: str = "mse"
    snr_train_db: float = 10.0
    val_fraction: float = 0.2
    shuffle_seed: int = 11
    init_seed: int = 12
    patience: int = 10
    decay_patience: int = 5
    lr_decay: float = 0.8


@dataclass(frozen=True)
class PipelineConfig:
    lwe: LweParams
    codec: CodecSpec
    dataset: DatasetSpec
    seeds: Seeds = field(default_factory=Seeds)
    n_levels: int = DEFAULT_N_LEVELS
    sigma_q: float = SIGMA_Q_INITIAL
    sigma_l: float = DEFAULT_SIGMA_L
    avg_power: float = DEFAULT_AVG_POWER
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0)
    output_csv: str = "sweep.csv"
    training: TrainingSettings = field(default_factory=TrainingSettings)

    def __post_init__(self):
        if self.lwe.p > MAX_CONSTELLATION:
            raise ValueError(f"lwe.p={self.lwe.p} exceeds the largest QAM "
                             f"constellation, {MAX_CONSTELLATION} points")
        if self.lwe.k != self.codec.k:
            raise ValueError(
                f"latent length mismatch: lwe.k={self.lwe.k}, codec.k={self.codec.k}")

    @property
    def rho(self) -> float:
        h, w, c = self.codec.input_shape
        return self.codec.k / (h * w * c)


def _snr_value(v):
    if v in ("inf", "Infinity"):
        return math.inf
    return float(v)


def load_config(path: str | Path) -> PipelineConfig:
    raw = json.loads(Path(path).read_text())
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> PipelineConfig:
    dataset = DatasetSpec(**raw.get("dataset", {
        "kind": "blob", "count": 100, "height": 16, "width": 16, "channels": 1}))
    n_pixels = dataset.height * dataset.width * dataset.channels

    lwe_raw = dict(DEFAULT_LWE)
    lwe_raw.update(raw.get("lwe", {}))
    lwe_raw.setdefault("k", n_pixels)
    lwe = LweParams(**lwe_raw)

    codec_raw = dict(raw.get("codec", {}))
    codec_raw.setdefault("kind", "identity")
    codec_raw.setdefault("input_shape", [dataset.height, dataset.width,
                                         dataset.channels])
    codec_raw.setdefault("k", lwe.k)
    codec_raw.setdefault("latent_scale",
                         lwe.p / 256.0 if codec_raw["kind"] != "mlp" else float(lwe.p))
    codec_raw["input_shape"] = tuple(codec_raw["input_shape"])
    codec_raw["hidden_sizes"] = tuple(codec_raw.get("hidden_sizes", ()))
    spec = CodecSpec(**codec_raw)

    seeds = Seeds(**raw.get("seeds", {}))
    training = TrainingSettings(**raw.get("training", {}))
    return PipelineConfig(
        lwe=lwe, codec=spec, dataset=dataset, seeds=seeds,
        n_levels=int(raw.get("n_levels", DEFAULT_N_LEVELS)),
        sigma_q=float(raw.get("sigma_q", SIGMA_Q_INITIAL)),
        sigma_l=float(raw.get("sigma_l", DEFAULT_SIGMA_L)),
        avg_power=float(raw.get("avg_power", DEFAULT_AVG_POWER)),
        snr_grid_db=tuple(_snr_value(v) for v in raw.get("snr_grid_db",
                                                         [0.0, 5.0, 10.0, 15.0])),
        output_csv=raw.get("output_csv", "sweep.csv"),
        training=training)


def game_config_from_dict(raw: dict) -> GameConfig:
    lwe_raw = dict(DEFAULT_LWE)
    lwe_raw.update(raw.get("lwe", {}))
    lwe_raw.setdefault("k", 16)
    return GameConfig(
        trials=int(raw.get("trials", 10000)),
        params=LweParams(**lwe_raw),
        n_levels=int(raw.get("n_levels", DEFAULT_N_LEVELS)),
        seed=int(raw.get("seed", 0)),
        distinguisher=raw.get("distinguisher", "marginal_chisq"))


def attack_config_from_dict(raw: dict,
                            default_dataset: DatasetSpec | None = None) -> AttackConfig:
    if "dataset" in raw:
        dataset = DatasetSpec(**raw["dataset"])
    elif default_dataset is not None:
        dataset = default_dataset
    else:
        dataset = DatasetSpec(kind="blob", count=0, height=8, width=8, channels=1)
    return AttackConfig(
        adversary=raw.get("adversary", "linear"),
        pairs=int(raw.get("pairs", 2000)),
        dataset=dataset,
        epochs=int(raw.get("epochs", 30)),
        error_mode=raw.get("error_mode", "fresh"),
        snr_e_db=_snr_value(raw.get("snr_e_db", "inf")),
        test_fraction=float(raw.get("test_fraction", 0.2)),
        seed=int(raw.get("seed", 0)),
        mlp_hidden=int(raw.get("mlp_hidden", 64)))
