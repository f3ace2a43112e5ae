"""Configuration and every JSON file the package reads or writes.

Defaults follow the reference operating point: modulus 4093 with 192x192
lattice dimensions and sampler width 8.87, 16 quantization levels and
Adam at 1e-4 with betas (0.9, 0.999); the demodulator's sharpness 5 is the
constant ``modem.SIGMA_L_DEFAULT``. Each default lives on its dataclass
field: the loaders pass on only the keys a config sets, and a value that
follows from others is no key (``dataset``, ``lwe.k`` and ``lwe.p`` set the
codec's input shape, length and scale; the game plays the run's
``n_levels``). Every random choice is pinned by an
explicit seed. One rule, :func:`_build`, turns every JSON object into its
dataclass by field names and annotations; key and codec files are checked
against the params and spec they carry.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .codec import ADAM_LR, CodecSpec, param_shapes
from .datasets import DatasetSpec
from .lwe import KeyPair, LweParams, PublicKey, keygen
from .modem import MAX_CONSTELLATION, Db, noise_variance
from .quantizer import check_levels
from .rng import seed_word
from .security import AttackConfig, GameConfig

DEFAULT_LWE = {"p": 4093, "n1": 192, "n2": 192, "sigma_s": 8.87}
KEY_FILE_VERSION = 1
KEY_HEADER = {"format": "securejscc-key", "version": KEY_FILE_VERSION}
CODEC_FILE_VERSION = 1
CODEC_HEADER = {"format": "securejscc-codec", "version": CODEC_FILE_VERSION}


@dataclass(frozen=True)
class Seeds:
    key: int = 1
    lattice: int = 2
    error: int = 3
    channel: int = 4
    data: int = 5

    def validation(self) -> dict[str, int]:
        """The ``train`` command's validation error and channel seeds, by their
        derivation: streams key on a seed's low 64 bits, so flipping the top
        one keeps validation off the training messages' streams."""
        return {f"seeds.{name} ^ 2**63": getattr(self, name) ^ (1 << 63)
                for name in ("error", "channel")}


@dataclass(frozen=True)
class TrainingSettings:
    """The ``training`` section."""

    max_steps: int = 5000
    batch_size: int = 8
    learning_rate: float = ADAM_LR
    snr_train_db: Db = 10.0
    val_fraction: float = 0.2
    shuffle_seed: int = 11
    init_seed: int = 12

    def __post_init__(self):
        for name in ("max_steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"training.{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ValueError(f"training.learning_rate must be positive, "
                             f"got {self.learning_rate}")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"training.val_fraction must lie in (0, 1), "
                             f"got {self.val_fraction}")


@dataclass(frozen=True)
class PipelineConfig:
    lwe: LweParams
    codec: CodecSpec
    dataset: DatasetSpec
    seeds: Seeds = field(default_factory=Seeds)
    n_levels: int = 16
    snr_grid_db: tuple[Db, ...] = (0.0, 5.0, 10.0, 15.0)
    training: TrainingSettings = field(default_factory=TrainingSettings)

    def __post_init__(self):
        if self.lwe.p > MAX_CONSTELLATION:
            raise ValueError(f"lwe.p={self.lwe.p} exceeds the largest QAM "
                             f"constellation, {MAX_CONSTELLATION} points")
        check_levels(self.lwe.p, self.n_levels, "lwe.p")
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must name at least one SNR")
        # a normal variance keeps SIGMA_L_DEFAULT / (pi sigma2) below ~7.2e307
        for i, snr_db in enumerate(self.snr_grid_db):
            noise_variance(snr_db, 1.0, f"config key 'snr_grid_db[{i}]'")
        noise_variance(self.training.snr_train_db, 1.0, "config key 'training.snr_train_db'")
        self.check_seeds()

    def check_seeds(self, more: dict[str, int] | None = None) -> None:
        """A ValueError naming two seeds equal mod 2**64: the config's, then ``more``."""
        seeds = {f"seeds.{name}": seed for name, seed in asdict(self.seeds).items()} | {
            f"training.{name}": getattr(self.training, name)
            for name in ("shuffle_seed", "init_seed")} | self.seeds.validation()
        named: dict[int, str] = {}
        for name, seed in (seeds | (more or {})).items():
            if (other := named.setdefault(seed_word(seed), name)) != name:
                raise ValueError(f"config keys '{other}' and '{name}' are equal mod "
                                 f"2**64, so they would draw the same random streams")


# -- the value rule ----------------------------------------------------------

FLOAT_MAX = sys.float_info.max
EXPECTED = {int: "an integer", float: "a finite number", str: "a string",
            Db: 'a finite number or "inf"'}


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _object(raw, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {_show(raw)}")
    return raw


def _value(tp, raw, name: str):
    """``raw`` as a value of annotation ``tp``; a ValueError names ``name``."""
    if is_dataclass(tp):
        return _build(tp, raw, name + ".")
    if tp is Db and raw in ("inf", "Infinity", math.inf):
        return math.inf
    if tp is int and type(raw) is int or tp is str and type(raw) is str:
        return raw
    # a comparison, unlike float(), cannot overflow on a huge integer
    if tp in (float, Db) and type(raw) in (int, float) and abs(raw) <= FLOAT_MAX:
        return float(raw)
    if get_origin(tp) is tuple:
        args = get_args(tp)
        kinds = args[:1] * len(raw) if args[-1] is ... and type(raw) is list else args
        if type(raw) is list and len(raw) == len(kinds):
            return tuple(_value(kind, item, f"{name}[{i}]")
                         for i, (kind, item) in enumerate(zip(kinds, raw)))
        expected = "a list" if args[-1] is ... else f"a list of {len(args)}"
    else:
        expected = EXPECTED[tp]
    raise ValueError(f"config key '{name}' must be {expected}, got {_show(raw)}")


def _build(cls, raw, prefix: str, **built):
    """``cls`` from the JSON object ``raw``, each value under the rule.

    ``built`` holds fields the caller has made itself: ``raw`` may not set
    them. An unknown or missing key is named after ``prefix``.
    """
    raw = _object(raw, f"config key '{prefix[:-1]}'" if prefix else "the config")
    names = [f.name for f in fields(cls) if f.name not in built]
    for key in raw:
        if key not in names:
            raise ValueError(f"unknown config key {prefix + key!r}")
    for f in fields(cls):
        required = f.default is f.default_factory is MISSING
        if required and f.name in names and f.name not in raw:
            raise ValueError(f"missing config key '{prefix}{f.name}'")
    hints = get_type_hints(cls)
    return cls(**built, **{key: _value(hints[key], value, prefix + key)
                           for key, value in raw.items()})


def _section(raw: dict, key: str, prefix: str = "") -> dict:
    """The object ``raw[key]``; ``{}`` when it is absent."""
    return _object(raw.get(key, {}), f"config key '{prefix}{key}'")


def _without(raw: dict, *keys) -> dict:
    return {key: value for key, value in raw.items() if key not in keys}


def _load(path: str | Path, build):
    """``build`` of the JSON value in ``path``; its ValueError names the file."""
    try:
        return build(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- config files ------------------------------------------------------------


def load_config(path: str | Path) -> PipelineConfig:
    return _load(path, config_from_dict)


def config_from_dict(raw: dict) -> PipelineConfig:
    raw = _object(raw, "the config")
    dataset = _build(DatasetSpec, raw.get("dataset", {
        "kind": "blob", "count": 100, "height": 16, "width": 16}), "dataset.")
    shape = (dataset.height, dataset.width, dataset.channels)
    lwe = _build(LweParams, {**DEFAULT_LWE, "k": math.prod(shape),
                             **_section(raw, "lwe")}, "lwe.")
    # the latent scale maps pixel values [0, 256), or the mlp's squash (0, 1), onto Z_p
    codec_raw = {"kind": "identity", **_section(raw, "codec")}
    if codec_raw["kind"] == "identity" and lwe.k != math.prod(shape):
        raise ValueError(f"the identity codec needs lwe.k == dataset.height * "
                         f"dataset.width * dataset.channels = {math.prod(shape)}, "
                         f"got lwe.k = {lwe.k}")
    scale = float(lwe.p) if codec_raw["kind"] == "mlp" else lwe.p / 256
    codec = _build(CodecSpec, codec_raw, "codec.", input_shape=shape, k=lwe.k,
                   latent_scale=scale)
    cfg = _build(PipelineConfig,
                 _without(raw, "lwe", "codec", "dataset", "game", "attack"), "",
                 lwe=lwe, codec=codec, dataset=dataset)
    if "game" in raw:  # every command checks the sections it finds
        game_config_from_dict(raw["game"], cfg.n_levels)
    if "attack" in raw:  # at any pair count: dataset.count is the attack loader's check
        attack = _build(AttackConfig, raw["attack"], "attack.", dataset=dataset,
                        pairs=sys.maxsize)
        cfg.check_seeds({"attack.seed": attack.seed})
    return cfg


def game_config_from_dict(raw: dict, n_levels: int) -> GameConfig:
    raw = _object(raw, "config key 'game'")
    lwe = _build(LweParams, {**DEFAULT_LWE, "k": 16, **_section(raw, "lwe", "game.")},
                 "game.lwe.")
    return _build(GameConfig, {"trials": 10000, **_without(raw, "lwe")}, "game.",
                  params=lwe, n_levels=n_levels)


def attack_config_from_dict(raw: dict, dataset: DatasetSpec) -> AttackConfig:
    """The ``attack`` section: one (image, ciphertext) pair per image of
    ``dataset``, so the section sets neither ``pairs`` nor ``dataset``."""
    build = partial(_build, AttackConfig, raw, "attack.", dataset=dataset)
    try:
        return build(pairs=dataset.count)
    except ValueError as exc:
        build(pairs=sys.maxsize)  # a section that fails at any pair count is at fault
        raise ValueError(f"config key 'dataset.count' is {dataset.count}, one attack "
                         f"pair per image: {exc}") from None


def load_game_config(path: str | Path) -> GameConfig:
    """The ``game`` section of a config file; the whole file is checked."""
    def build(raw):
        n_levels = config_from_dict(raw).n_levels
        return game_config_from_dict(raw.get("game", {}), n_levels)
    return _load(path, build)


def load_attack_config(path: str | Path) -> tuple[PipelineConfig, AttackConfig]:
    """A config file and its ``attack`` section."""
    def build(raw):
        cfg = config_from_dict(raw)
        attack = attack_config_from_dict(raw.get("attack", {}), cfg.dataset)
        cfg.check_seeds({"attack.seed": attack.seed})  # the section's, or the default
        return cfg, attack
    return _load(path, build)


# -- key and codec files -----------------------------------------------------
#
# Structured JSON, matrices base-10 row-major. The public key file holds the
# public matrices explicitly and omits both S and key_seed: key_seed
# regenerates S, so it is secret material and never leaves the secret file.


def _file_fields(raw, header: dict, names, what: str) -> dict:
    """The object ``raw``: ``header``'s entries, then ``names``, no other key."""
    raw = _object(raw, what)
    for key, want in header.items():
        if json.dumps(raw.get(key)) != json.dumps(want):  # 1.0 and true are not 1
            raise ValueError(f"not a {what}: {key!r} is {_show(raw.get(key))}")
    for name in names:
        if name not in raw:
            raise ValueError(f"{what} has no {name!r} field")
    for key in raw:
        if key not in header and key not in names:
            raise ValueError(f"unknown {what} field {key!r}")
    return raw


def _array(raw, name: str, shape: tuple[int, ...], kinds: str) -> np.ndarray:
    """``raw`` as an array of ``shape`` of integers (kinds "i") or finite
    numbers ("if")."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in kinds or arr.shape != shape or not np.isfinite(arr).all():
        what = "integers" if kinds == "i" else "finite numbers"
        raise ValueError(f"{name!r} must be a {shape} array of {what}; "
                         f"it is a {arr.shape} array of {arr.dtype}")
    return arr


def save_key_files(key: KeyPair, public_path: str | Path,
                   secret_path: str | Path) -> None:
    params = asdict(key.params)
    Path(public_path).write_text(json.dumps({
        **KEY_HEADER, "kind": "public", "params": params,
        "lattice_seed": key.lattice_seed, "B": key.B.tolist(), "A": key.A.tolist()}))
    Path(secret_path).write_text(json.dumps({
        **KEY_HEADER, "kind": "secret", "params": params, "key_seed": key.key_seed,
        "lattice_seed": key.lattice_seed, "S": key.S.tolist()}))


def _key_file(raw, kind: str, names) -> tuple[dict, LweParams]:
    raw = _file_fields(raw, {**KEY_HEADER, "kind": kind}, names, f"{kind} key file")
    return raw, _build(LweParams, raw["params"], "params.")


def load_public_key(path: str | Path) -> PublicKey:
    """The public key file; ``B`` and ``A`` must be residues of its params."""
    def build(raw):
        raw, params = _key_file(raw, "public", ("params", "lattice_seed", "B", "A"))
        B = _array(raw["B"], "B", (params.n1, params.k), "i")
        A = _array(raw["A"], "A", (params.n1, params.n2), "i")
        for name, m in (("B", B), ("A", A)):
            if m.min() < 0 or m.max() >= params.p:
                raise ValueError(f"{name!r} entries must lie in [0, {params.p})")
        return PublicKey(params, B, A, _value(int, raw["lattice_seed"], "lattice_seed"))
    return _load(path, build)


def load_secret_key(path: str | Path) -> KeyPair:
    """Rebuild the full key pair from the secret file.

    The pair is regenerated from the stored seeds; the stored S acts as an
    integrity check against seed or parameter mismatches.
    """
    def build(raw):
        raw, params = _key_file(raw, "secret",
                                ("params", "key_seed", "lattice_seed", "S"))
        S = _array(raw["S"], "S", (params.n2, params.k), "i")
        key = keygen(params, *(_value(int, raw[name], name)
                               for name in ("key_seed", "lattice_seed")))
        if not np.array_equal(S, key.S):
            raise ValueError("secret key file is inconsistent with its seeds")
        return key
    return _load(path, build)


def save_codec(spec: CodecSpec, params: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps({
        **CODEC_HEADER, "spec": asdict(spec),
        "params": {name: arr.tolist() for name, arr in params.items()}}))


def load_codec(path: str | Path) -> tuple[CodecSpec, dict]:
    """A codec file's spec and parameters; every parameter the spec names
    must be there, with its shape and finite entries, and no other."""
    def build(raw):
        raw = _file_fields(raw, CODEC_HEADER, ("spec", "params"), "codec file")
        spec = _build(CodecSpec, raw["spec"], "spec.")
        shapes = param_shapes(spec)
        stored = _file_fields(raw["params"], {}, shapes, "codec file params")
        return spec, {name: _array(stored[name], name, shape, "if").astype(np.float64)
                      for name, shape in shapes.items()}
    return _load(path, build)
