import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from securejscc.cli import main
from securejscc.codec import CodecSpec
from securejscc.config import (PipelineConfig, attack_config_from_dict,
                               config_from_dict, game_config_from_dict,
                               load_config, load_public_key, load_secret_key)
from securejscc.datasets import DatasetSpec
from test_datasets import write_image


def test_defaults_mirror_reference_operating_point():
    cfg = config_from_dict({})
    assert (cfg.lwe.p, cfg.lwe.n1, cfg.lwe.n2) == (4093, 192, 192)
    assert cfg.lwe.sigma_s == 8.87
    assert cfg.n_levels == 16
    assert cfg.sigma_l == 5.0
    assert cfg.codec.kind == "identity"
    assert cfg.lwe.k == cfg.codec.k == 16 * 16 * 1
    assert cfg.codec.rho == 1.0
    # the loader adds no default of its own to a field that has one
    for f in dataclasses.fields(PipelineConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(cfg, f.name) == f.default, f.name
        elif f.default_factory is not dataclasses.MISSING:
            assert getattr(cfg, f.name) == f.default_factory(), f.name


@pytest.mark.parametrize("raw, key", [
    ({"sigma_q": 5.0}, "sigma_q"),
    ({"sigma_L": 3}, "sigma_L"),
    ({"lwe": {"sigma": 8.87}}, "lwe.sigma"),
    ({"codec": {"kind": "identity", "scale": 1.0}}, "codec.scale"),
    ({"dataset": {"kind": "blob", "count": 4, "height": 4, "width": 4,
                  "chanels": 1}}, "dataset.chanels"),
    ({"seeds": {"keys": 1}}, "seeds.keys"),
    ({"training": {"sigma_q": 5.0}}, "training.sigma_q"),
    # removed settings: sigma_l alone sets the demodulator's sharpness, and
    # the stopping rule is training.PATIENCE, DECAY_PATIENCE and LR_DECAY
    ({"avg_power": 1.0}, "avg_power"),
    ({"training": {"patience": 10}}, "training.patience"),
    ({"training": {"decay_patience": 5}}, "training.decay_patience"),
    ({"training": {"lr_decay": 0.8}}, "training.lr_decay"),
    # values that follow from others: the codec's input is the dataset's
    # image, its output the plaintext of lwe.k symbols, its range set by
    # lwe.p; the game plays the run's n_levels
    ({"codec": {"kind": "mlp", "k": 16}}, "codec.k"),
    ({"codec": {"kind": "mlp", "input_shape": [4, 4, 1]}}, "codec.input_shape"),
    ({"codec": {"kind": "identity", "latent_scale": 1000.0}}, "codec.latent_scale"),
    ({"game": {"n_levels": 16}}, "game.n_levels"),
])
def test_unknown_key_rejected_at_load(raw, key):
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        cfg = config_from_dict(raw)
        game_config_from_dict(raw.get("game", {}), cfg.n_levels)


def test_readme_config_example_loads():
    # a key removed from the loaders cannot linger in the documented example
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    raw = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = config_from_dict(raw)
    game_config_from_dict(raw["game"], cfg.n_levels)
    attack_config_from_dict(raw["attack"], cfg.dataset)


def test_missing_section_key_rejected_at_load():
    with pytest.raises(ValueError, match="missing config key 'dataset.count'"):
        config_from_dict({"dataset": {"kind": "blob", "height": 4, "width": 4}})


def test_game_and_attack_sections_allowed():
    config_from_dict({"game": {"trials": 200}, "attack": {"adversary": "mlp"}})


@pytest.mark.parametrize("raw, key", [
    ({"trails": 200}, "game.trails"),
    ({"lwe": {"sigma": 8.87}}, "game.lwe.sigma"),
])
def test_game_loader_rejects_unknown_key(raw, key):
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        game_config_from_dict(raw, 16)


@pytest.mark.parametrize("raw, key", [
    ({"pair": 10}, "attack.pair"),
    # the attack sends one pair per image of the config's dataset
    ({"dataset": {"kind": "blob", "count": 7, "height": 4, "width": 4}},
     "attack.dataset"),
    ({"mlp_hidden": 64}, "attack.mlp_hidden"),  # now security.MLP_HIDDEN
    ({"pairs": 10}, "attack.pairs"),
])
def test_attack_loader_rejects_unknown_key(raw, key):
    cfg = config_from_dict({})
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        attack_config_from_dict(raw, cfg.dataset)


def test_attack_pairs_are_the_dataset_count():
    cfg = config_from_dict({"dataset": images(30)})
    attack = attack_config_from_dict({"error_mode": "reused"}, cfg.dataset)
    assert attack.dataset == DatasetSpec("blob", 30, 4, 4, 1)
    assert (attack.pairs, attack.adversary) == (30, "linear")


def test_codec_follows_dataset_and_lwe():
    cfg = config_from_dict({"lwe": {"p": 251, "k": 10},
                            "codec": {"kind": "mlp", "hidden_sizes": [6]},
                            "dataset": {"kind": "blob", "count": 3, "height": 8,
                                        "width": 4, "channels": 3}})
    assert cfg.codec == CodecSpec(kind="mlp", input_shape=(8, 4, 3), k=10,
                                  latent_scale=251.0, hidden_sizes=(6,))
    assert config_from_dict({"lwe": {"p": 251}}).codec.latent_scale == 251 / 256


def test_oversized_modulus_rejected_at_load():
    config_from_dict({"lwe": {"p": 4096}})
    with pytest.raises(ValueError, match="exceeds the largest QAM"):
        config_from_dict({"lwe": {"p": 5000}})


def test_infinite_snr_parses():
    cfg = config_from_dict({"snr_grid_db": ["inf", 10]})
    assert cfg.snr_grid_db == (math.inf, 10.0)


def make_config_file(tmp_path, **over):
    raw = {
        "lwe": {"p": 251, "n1": 16, "n2": 16, "sigma_s": 1.5, "k": 16},
        "dataset": {"kind": "blob", "count": 4, "height": 4, "width": 4,
                    "channels": 1},
        "codec": {"kind": "identity"},
        "snr_grid_db": [5.0, 15.0],
        "seeds": {"key": 1, "lattice": 2, "error": 3, "channel": 4, "data": 5},
    }
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def images(count):
    """The ``dataset`` section of ``count`` 4x4 images."""
    return {"kind": "blob", "count": count, "height": 4, "width": 4}


def test_cli_keygen_and_key_files(tmp_path):
    cfg_path = make_config_file(tmp_path, seeds={"key": 7, "lattice": 8})
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    assert main(["keygen", "--config", str(cfg_path),
                 "--out", str(pub), str(sec)]) == 0
    loaded = load_secret_key(sec)
    assert (loaded.params, loaded.key_seed) == (load_config(cfg_path).lwe, 7)
    assert np.array_equal(load_public_key(pub).B, loaded.B)


@pytest.mark.parametrize("over, message", [
    ({"lwe": {"p": 251, "n1": 16, "n2": 16, "sigma_s": 1.5, "sigma": 1.5, "k": 16}},
     "unknown config key 'lwe.sigma'"),
    ({"dataset": {"kind": "blob", "height": 4, "width": 4}},
     "missing config key 'dataset.count'"),
    # keygen makes the same checks as every other command
    ({"lwe": {"p": 5003, "n1": 16, "n2": 16, "sigma_s": 1.5, "k": 16}},
     "exceeds the largest QAM constellation"),
    # the seeds of the keygen params file of earlier versions
    ({"key_seed": 7, "lattice_seed": 8}, "unknown config key 'key_seed'"),
])
def test_cli_keygen_bad_config_exits_2(tmp_path, capsys, over, message):
    code = main(["keygen", "--config", str(make_config_file(tmp_path, **over)),
                 "--out", str(tmp_path / "p"), str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "s").exists()


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = make_config_file(tmp_path, sigma_q=50.0)
    code = main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown config key 'sigma_q'" in err
    assert not (tmp_path / "a.csv").exists()


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    assert main(["sweep", "--config", str(missing),
                 "--out", str(tmp_path / "a.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err


def test_cli_sweep_deterministic(tmp_path):
    cfg_path = make_config_file(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("schema_version,")


def test_cli_transmit_with_image_file(tmp_path):
    cfg_path = make_config_file(tmp_path)
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    main(["keygen", "--config", str(cfg_path), "--out", str(pub), str(sec)])
    img = tmp_path / "x.pgm"
    write_image(img, np.arange(16, dtype=np.float64).reshape(4, 4, 1) * 16)
    out = tmp_path / "tx.csv"
    assert main(["transmit", "--config", str(cfg_path), "--keys", str(sec),
                 "--in", str(img), "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) >= 2


def test_cli_indcpa(tmp_path, capsys):
    cfg = tmp_path / "game.json"
    cfg.write_text(json.dumps({"game": {
        "trials": 200, "seed": 3, "distinguisher": "marginal_chisq",
        "lwe": {"p": 257, "n1": 16, "n2": 16, "sigma_s": 8.87, "k": 8}}}))
    out = tmp_path / "game.csv"
    assert main(["indcpa", "--config", str(cfg), "--out", str(out)]) == 0
    assert "advantage" in capsys.readouterr().out
    assert out.read_text().startswith("distinguisher,")


def test_cli_indcpa_n_levels_above_game_modulus_exits_2(tmp_path, capsys):
    # the game plays the run's 300 levels, which its p = 257 cannot hold
    cfg = tmp_path / "game.json"
    cfg.write_text(json.dumps({"n_levels": 300, "game": {
        "trials": 200, "lwe": {"p": 257, "n1": 16, "n2": 16, "sigma_s": 8.87, "k": 8}}}))
    out = tmp_path / "game.csv"
    assert main(["indcpa", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err
    assert "n_levels must lie in [2, the game's lwe.p = 257], got 300" in err
    assert not out.exists()


def test_cli_transmit_key_file_missing_field_exits_2(tmp_path, capsys):
    cfg_path = make_config_file(tmp_path)
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    assert main(["keygen", "--config", str(cfg_path), "--out", str(pub), str(sec)]) == 0
    blob = json.loads(sec.read_text())
    del blob["params"]
    sec.write_text(json.dumps(blob))
    capsys.readouterr()
    code = main(["transmit", "--config", str(cfg_path), "--keys", str(sec),
                 "--in", "synthetic", "--out", str(tmp_path / "tx.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no 'params' field" in err


def test_cli_attack_with_sabotage_control(tmp_path, capsys):
    cfg_path = make_config_file(
        tmp_path, dataset=images(400),
        attack={"adversary": "linear", "epochs": 5, "seed": 1})
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", str(cfg_path), "--out", str(out),
                 "--sabotage-control"]) == 0
    text = out.read_text().strip().split("\n")
    assert len(text) == 3  # header + fresh + sabotage rows


def test_cli_sabotage_control_runs_at_infinite_snr(tmp_path):
    # the control tests the harness, not the channel: at the configured
    # 10 dB the channel hides the reused triple's leak (mse ratio 0.644)
    cfg_path = make_config_file(
        tmp_path, dataset=images(200), attack={"adversary": "linear", "snr_e_db": 10.0})
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", str(cfg_path), "--out", str(out),
                 "--sabotage-control"]) == 0
    _, fresh, reused = out.read_text().strip().split("\n")
    assert fresh.split(",")[1:3] == ["fresh", "10.0"]
    assert reused.split(",")[1:3] == ["reused", "inf"]
    assert float(reused.split(",")[-1]) < 0.5


def test_cli_keygen_seed_flags_are_gone(tmp_path, capsys):
    # the config's seeds section is the one home of the keygen seeds
    cfg_path = make_config_file(tmp_path)
    for flag in ("--key-seed", "--lattice-seed", "--params"):
        with pytest.raises(SystemExit) as exc:
            main(["keygen", "--config", str(cfg_path), flag, "9",
                  "--out", str(tmp_path / "p"), str(tmp_path / "s")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_cli_sweep_output_path_is_the_out_flag(tmp_path, capsys):
    # --out is the one home of the sweep's output path
    cfg_path = make_config_file(tmp_path, output_csv="sweep.csv")
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown config key 'output_csv'" in err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(make_config_file(tmp_path))])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_cli_train_writes_codec(tmp_path):
    cfg_path = make_config_file(
        tmp_path,
        dataset={"kind": "blob", "count": 20, "height": 4, "width": 4,
                 "channels": 1},
        codec={"kind": "mlp", "hidden_sizes": [12]},
        training={"max_steps": 30, "batch_size": 5, "snr_train_db": 10.0})
    out = tmp_path / "codec.json"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    from securejscc.config import load_codec
    spec, params = load_codec(out)
    assert spec.kind == "mlp"
    assert params


MLP_TRAINING = dict(
    dataset={"kind": "blob", "count": 20, "height": 4, "width": 4, "channels": 1},
    codec={"kind": "mlp", "hidden_sizes": [12]},
    training={"max_steps": 30, "batch_size": 5, "snr_train_db": 10.0})


def test_cli_train_validation_streams_disjoint_from_training(tmp_path, monkeypatch):
    # every (seed, index) stream the chain draws, by phase: error triples
    # come from derive_error_rows, channel noise from receive
    from securejscc import pipeline, training
    drawn = {"train": set(), "val": set()}
    phase = ["train"]

    def spy(fn, at):  # args[at], args[at + 1] are the seed and the indices
        def wrapper(*args):
            seed, indices = args[at:at + 2]
            drawn[phase[0]].update((seed, int(i)) for i in indices)
            return fn(*args)
        return wrapper

    def evaluate(*args):
        phase[0] = "val"
        try:
            return real_evaluate(*args)
        finally:
            phase[0] = "train"

    real_evaluate = training.evaluate
    monkeypatch.setattr(pipeline, "derive_error_rows", spy(pipeline.derive_error_rows, 0))
    monkeypatch.setattr(pipeline, "receive", spy(pipeline.receive, 4))
    monkeypatch.setattr(training, "evaluate", evaluate)
    cfg_path = make_config_file(tmp_path, **MLP_TRAINING)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "codec.json")]) == 0
    assert drawn["train"] and drawn["val"]
    assert not drawn["train"] & drawn["val"]


@pytest.mark.parametrize("over, message", [
    ({"training": {"max_steps": 0}}, "training.max_steps must be at least 1"),
    ({"training": {"batch_size": -1}}, "training.batch_size must be at least 1"),
    ({"n_levels": 1}, "n_levels must lie in [2, lwe.p = 251], got 1"),
    ({"n_levels": 252}, "n_levels must lie in [2, lwe.p = 251], got 252"),
    ({"snr_grid_db": []}, "snr_grid_db must name at least one SNR"),
    ({"sigma_l": -1.0}, "sigma_l must be positive, got -1.0"),
    ({"sigma_l": 0, "snr_grid_db": ["inf"]}, "sigma_l must be positive, got 0.0"),
])
def test_cli_unworkable_settings_exit_2(tmp_path, capsys, over, message):
    cfg_path = make_config_file(tmp_path, **{**MLP_TRAINING, **over})
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "codec.json")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "codec.json").exists()


@pytest.mark.parametrize("over", [
    {"training": {"val_fraction": 1.0}},
    {"dataset": {"kind": "blob", "count": 1, "height": 4, "width": 4}},
])
def test_cli_train_split_without_training_images_exits_2(tmp_path, capsys, over):
    cfg_path = make_config_file(tmp_path, **{**MLP_TRAINING, **over})
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "codec.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "training.val_fraction" in err and "dataset.count" in err
    assert not (tmp_path / "codec.json").exists()


def test_sweep_config_with_one_image_loads(tmp_path):
    # the split is checked by train, not by the loader
    cfg = load_config(make_config_file(tmp_path, dataset={
        "kind": "blob", "count": 1, "height": 4, "width": 4}))
    assert cfg.dataset.count == 1


# the config settings of an attack run, which sends one pair per image
@pytest.mark.parametrize("attack, message", [
    ({"dataset": images(1)}, "test fraction leaves no training pairs"),
    ({"dataset": images(10), "attack": {"test_fraction": 0.96}},
     "test fraction leaves no training pairs"),
    ({"attack": {"pairs": 50}}, "unknown config key 'attack.pairs'"),
    ({"attack": {"dataset": images(7)}}, "unknown config key 'attack.dataset'"),
    ({"dataset": images(0)}, "config key 'dataset.count' is 0, one attack pair per "
     "image: need at least one (image, ciphertext) pair"),
    ({"dataset": images(1)}, "config key 'dataset.count' is 1, one attack pair per "
     "image: test fraction leaves no training pairs"),
])
def test_cli_unworkable_attack_exits_2(tmp_path, capsys, attack, message):
    cfg_path = make_config_file(tmp_path, **attack)
    assert main(["attack", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    # every message names the config key to change
    assert message in err and "config key '" in err and err.count("\n") == 1


def test_cli_unallocatable_lattice_exits_2(tmp_path, capsys, monkeypatch):
    from securejscc import cli

    def keygen(*args):
        raise MemoryError("Unable to allocate 116. TiB for an array")
    monkeypatch.setattr(cli, "keygen", keygen)
    assert main(["sweep", "--config", str(make_config_file(tmp_path)),
                 "--out", str(tmp_path / "sweep.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "securejscc sweep: Unable to allocate 116. TiB for an array\n"
