"""Every config in configs/ runs through the CLI at its smallest size, and
README's CLI block runs them.

A file is shrunk first: its image count, training steps and game trials
only, never p, n or sigma, so the lattice, codec and channel run as the
file sets them. What a file runs follows from its sections: ``training``
runs ``train``, ``game`` runs ``indcpa`` and ``attack`` runs ``attack
--sabotage-control``; a file with none of these runs ``keygen``, then
``transmit`` with those keys, then ``sweep``.
"""

import json
import re
from pathlib import Path

import pytest

from securejscc import cli
from securejscc.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
SMALLEST = {("dataset", "count"): 2, ("training", "max_steps"): 2,
            ("game", "trials"): 100}
# the attack sends one pair per image; its sabotage control needs this many
ATTACK_IMAGES = 200


def shrunk(path: Path, tmp_path: Path) -> Path:
    raw = json.loads(path.read_text())
    smallest = dict(SMALLEST)
    if "attack" in raw:
        smallest["dataset", "count"] = ATTACK_IMAGES
    for (section, key), least in smallest.items():
        if key in raw.get(section, {}):
            raw[section][key] = min(raw[section][key], least)
    out = tmp_path / path.name
    out.write_text(json.dumps(raw))
    return out


def commands(path: Path, tmp_path: Path) -> list[list[str]]:
    raw = json.loads(path.read_text())
    cfg = str(shrunk(path, tmp_path))
    public, secret = str(tmp_path / "public.json"), str(tmp_path / "secret.json")
    runs = {"training": ["train", "--config", cfg, "--out", str(tmp_path / "codec.json")],
            "game": ["indcpa", "--config", cfg, "--out", str(tmp_path / "game.csv")],
            "attack": ["attack", "--config", cfg, "--sabotage-control",
                       "--out", str(tmp_path / "attack.csv")]}
    return ([run for section, run in runs.items() if section in raw]
            or [["keygen", "--config", cfg, "--out", public, secret],
                ["transmit", "--config", cfg, "--keys", secret, "--in", "synthetic",
                 "--out", str(tmp_path / "tx.csv")],
                ["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.csv")]])


def test_configs_are_checked_in():
    assert {p.name for p in CONFIGS.glob("*.json")} >= {
        "sweep.json", "train_toy.json", "security.json"}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_config_runs_through_the_cli(tmp_path, capsys, path):
    for argv in commands(path, tmp_path):
        assert main(argv) == 0, capsys.readouterr().err
        assert Path(argv[-1]).exists()  # every run writes its last argument


def test_readme_cli_lines_parse(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("securejscc ")]
    subcommands = {name[len("_cmd_"):] for name in vars(cli)
                   if name.startswith("_cmd_")}
    for name in subcommands:
        monkeypatch.setattr(cli, "_cmd_" + name, lambda args: 0)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    assert {argv[1] for argv in lines} == subcommands
    assert (set(re.findall(r"configs/(\w+\.json)", readme))
            == {p.name for p in CONFIGS.glob("*.json")})
