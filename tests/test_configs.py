"""Every config in configs/ runs through the CLI at its smallest size.

A file is shrunk first: its counts, training steps, game trials and attack
pairs only, never p, n or sigma, so the lattice, codec and channel run as
the file sets them. What a file runs follows from its sections: a keygen
params file (it sets ``key_seed``) runs ``keygen`` and then ``transmit``
under configs/sweep.json; ``training`` runs ``train``, ``game`` runs
``indcpa`` and ``attack`` runs ``attack --sabotage-control``; a file with
none of these runs ``sweep``.
"""

import json
from pathlib import Path

import pytest

from securejscc.cli import main
from securejscc.config import load_config, load_keygen_params

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SMALLEST = {("dataset", "count"): 2, ("training", "max_steps"): 2,
            ("game", "trials"): 100, ("attack", "pairs"): 200}


def shrunk(path: Path, tmp_path: Path) -> Path:
    raw = json.loads(path.read_text())
    for (section, key), smallest in SMALLEST.items():
        if key in raw.get(section, {}):
            raw[section][key] = min(raw[section][key], smallest)
    attack_dataset = raw.get("attack", {}).get("dataset", {})
    if "count" in attack_dataset:
        attack_dataset["count"] = raw["attack"]["pairs"]
    out = tmp_path / path.name
    out.write_text(json.dumps(raw))
    return out


def commands(path: Path, tmp_path: Path) -> list[list[str]]:
    raw = json.loads(path.read_text())
    cfg = str(shrunk(path, tmp_path))
    if "key_seed" in raw:
        public, secret = str(tmp_path / "public.json"), str(tmp_path / "secret.json")
        return [["keygen", "--params", cfg, "--out", public, secret],
                ["transmit", "--config", str(shrunk(CONFIGS / "sweep.json", tmp_path)),
                 "--keys", secret, "--in", "synthetic",
                 "--out", str(tmp_path / "tx.csv")]]
    runs = {"training": ["train", "--config", cfg, "--out", str(tmp_path / "codec.json")],
            "game": ["indcpa", "--config", cfg, "--out", str(tmp_path / "game.csv")],
            "attack": ["attack", "--config", cfg, "--sabotage-control",
                       "--out", str(tmp_path / "attack.csv")]}
    return ([run for section, run in runs.items() if section in raw]
            or [["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.csv")]])


def test_configs_are_checked_in():
    assert {p.name for p in CONFIGS.glob("*.json")} >= {
        "sweep.json", "train_toy.json", "security.json", "keygen.json"}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_config_runs_through_the_cli(tmp_path, capsys, path):
    for argv in commands(path, tmp_path):
        assert main(argv) == 0, capsys.readouterr().err
        assert Path(argv[-1]).exists()  # every run writes its last argument


def test_keygen_params_match_the_sweep_config():
    params, key_seed, lattice_seed = load_keygen_params(CONFIGS / "keygen.json")
    cfg = load_config(CONFIGS / "sweep.json")
    assert params == cfg.lwe
    assert (key_seed, lattice_seed) == (cfg.seeds.key, cfg.seeds.lattice)
