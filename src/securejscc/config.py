"""Pipeline configuration: dataclasses plus JSON (de)serialization.

Defaults follow the reference operating point: modulus 4093 with 192x192
lattice dimensions and sampler width 8.87, 16 quantization levels,
demodulator sharpness 5, and Adam at 1e-4 with betas (0.9, 0.999). Each
default lives on its dataclass field: the loaders pass on only the keys a
config sets, and every loader rejects a key that no field names. Every
random choice is pinned by an explicit seed in the config.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .codec import ADAM_LR, CodecSpec
from .datasets import DatasetSpec
from .lwe import LweParams
from .modem import AVG_POWER_DEFAULT, MAX_CONSTELLATION, SIGMA_L_DEFAULT
from .security import AttackConfig, GameConfig

DEFAULT_LWE = {"p": 4093, "n1": 192, "n2": 192, "sigma_s": 8.87}


@dataclass(frozen=True)
class Seeds:
    key: int = 1
    lattice: int = 2
    error: int = 3
    channel: int = 4
    data: int = 5


@dataclass(frozen=True)
class TrainingSettings:
    """The ``training`` section; its stopping rule (``patience``,
    ``decay_patience``, ``lr_decay``) is also ``train_codec``'s default."""

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
    n_levels: int = 16
    sigma_l: float = SIGMA_L_DEFAULT
    avg_power: float = AVG_POWER_DEFAULT
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


def _snr_value(v):
    if v in ("inf", "Infinity"):
        return math.inf
    return float(v)


def _present(raw: dict, casts: dict) -> dict:
    """The keys of ``casts`` that ``raw`` sets, each value cast."""
    return {key: cast(raw[key]) for key, cast in casts.items() if key in raw}


def _check_keys(raw: dict, allowed, prefix: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ValueError(f"unknown config key {prefix + key!r}")


def _build(cls, values: dict, prefix: str):
    """``cls(**values)``, naming any unknown or missing key after ``prefix``."""
    _check_keys(values, [f.name for f in fields(cls)], prefix)
    for f in fields(cls):
        if f.name not in values and f.default is f.default_factory is MISSING:
            raise ValueError(f"missing config key '{prefix}{f.name}'")
    return cls(**values)


TOP_LEVEL_CASTS = {"n_levels": int, "sigma_l": float, "avg_power": float,
                   "snr_grid_db": lambda v: tuple(map(_snr_value, v)),
                   "output_csv": str}
# top-level sections read by game_config_from_dict and attack_config_from_dict
OWN_LOADER_SECTIONS = ("game", "attack")
GAME_CASTS = {"n_levels": int, "seed": int, "distinguisher": str}
ATTACK_CASTS = {"epochs": int, "error_mode": str, "snr_e_db": _snr_value,
                "test_fraction": float, "seed": int, "mlp_hidden": int}


def load_config(path: str | Path) -> PipelineConfig:
    raw = json.loads(Path(path).read_text())
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> PipelineConfig:
    _check_keys(raw, [f.name for f in fields(PipelineConfig)]
                + list(OWN_LOADER_SECTIONS), "")
    dataset = _build(DatasetSpec, raw.get("dataset", {
        "kind": "blob", "count": 100, "height": 16, "width": 16}), "dataset.")
    n_pixels = dataset.height * dataset.width * dataset.channels
    lwe = _build(LweParams, {**DEFAULT_LWE, "k": n_pixels, **raw.get("lwe", {})},
                 "lwe.")

    codec_raw = {"kind": "identity",
                 "input_shape": [dataset.height, dataset.width, dataset.channels],
                 "k": lwe.k, **raw.get("codec", {})}
    codec_raw.setdefault("latent_scale",
                         lwe.p / 256.0 if codec_raw["kind"] != "mlp" else float(lwe.p))
    codec_raw["input_shape"] = tuple(codec_raw["input_shape"])
    if "hidden_sizes" in codec_raw:
        codec_raw["hidden_sizes"] = tuple(codec_raw["hidden_sizes"])
    return PipelineConfig(
        lwe=lwe, codec=_build(CodecSpec, codec_raw, "codec."), dataset=dataset,
        seeds=_build(Seeds, raw.get("seeds", {}), "seeds."),
        training=_build(TrainingSettings, raw.get("training", {}), "training."),
        **_present(raw, TOP_LEVEL_CASTS))


def game_config_from_dict(raw: dict) -> GameConfig:
    _check_keys(raw, ["trials", "lwe", *GAME_CASTS], "game.")
    lwe_raw = {**DEFAULT_LWE, "k": 16, **raw.get("lwe", {})}
    return GameConfig(
        trials=int(raw.get("trials", 10000)),
        params=_build(LweParams, lwe_raw, "game.lwe."),
        **_present(raw, GAME_CASTS))


def attack_config_from_dict(raw: dict, default_dataset: DatasetSpec) -> AttackConfig:
    _check_keys(raw, ["adversary", "pairs", "dataset", *ATTACK_CASTS], "attack.")
    dataset = (_build(DatasetSpec, raw["dataset"], "attack.dataset.")
               if "dataset" in raw else default_dataset)
    return AttackConfig(
        adversary=raw.get("adversary", "linear"),
        pairs=int(raw.get("pairs", 2000)),
        dataset=dataset,
        **_present(raw, ATTACK_CASTS))


def lwe_params_from_dict(raw: dict) -> LweParams:
    """The lattice parameters of a keygen params file, seeds removed."""
    return _build(LweParams, raw, "")
