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
    # removed settings: the demodulator's sharpness is modem.SIGMA_L_DEFAULT
    # at unit power, and the stopping rule is training.PATIENCE,
    # DECAY_PATIENCE and LR_DECAY
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
    # a removed setting: codec.mse_loss is the one training objective
    ({"training": {"loss": "mse"}}, "training.loss"),
    # removed settings that held one value: the demodulator's sharpness is
    # modem.SIGMA_L_DEFAULT, the attack's held-out share security.TEST_FRACTION
    ({"sigma_l": 5.0}, "sigma_l"),
    ({"attack": {"test_fraction": 0.2}}, "attack.test_fraction"),
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
    # seeds equal mod 2**64 key the same streams
    ({"seeds": {"key": 2, "lattice": 2}},
     "config keys 'seeds.key' and 'seeds.lattice' are equal mod 2**64"),
    ({"seeds": {"error": 4 + 2 ** 64, "channel": 4}},
     "config keys 'seeds.error' and 'seeds.channel' are equal mod 2**64"),
    ({"seeds": {"data": -1}, "training": {"init_seed": 2 ** 64 - 1}},
     "config keys 'seeds.data' and 'training.init_seed' are equal mod 2**64"),
    # the attack's trial seeds come from attack.seed's stream, keygen's S from seeds.key's
    ({"seeds": {"key": 7}, "attack": {"seed": 7}},
     "config keys 'seeds.key' and 'attack.seed' are equal mod 2**64"),
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


@pytest.mark.parametrize("kind", ["gradient", "checkerboard"])
def test_cli_removed_dataset_kind_exits_2(tmp_path, capsys, kind):
    # blob is the only synthetic kind; the earlier ones are not read as it
    cfg_path = make_config_file(tmp_path, dataset={**images(4), "kind": kind})
    code = main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unknown dataset kind '{kind}'" in err
    assert not (tmp_path / "a.csv").exists()


def test_cli_identity_k_mismatch_names_config_keys(tmp_path, capsys):
    # lwe.k must be the dataset's pixel count (4 x 4 x 1) for the identity codec
    cfg_path = make_config_file(
        tmp_path, lwe={"p": 251, "n1": 16, "n2": 16, "sigma_s": 1.5, "k": 100})
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    for key in ("lwe.k", "dataset.height", "dataset.width", "dataset.channels",
                "= 16", "100"):
        assert key in err
    assert not (tmp_path / "out.csv").exists()


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


def test_cli_transmit_refuses_an_error_seed_equal_to_the_key_files_lattice_seed(
        tmp_path, capsys):
    # the public key carries lattice_seed, so error triples drawn under it
    # would be public: the key comes from another config, outside load's check
    key_dir = tmp_path / "keys"
    key_dir.mkdir()
    key_cfg = make_config_file(key_dir, seeds={"key": 1, "lattice": 3, "error": 6})
    pub, sec = key_dir / "pub.json", key_dir / "sec.json"
    assert main(["keygen", "--config", str(key_cfg), "--out", str(pub), str(sec)]) == 0
    capsys.readouterr()
    out = tmp_path / "tx.csv"
    assert main(["transmit", "--config", str(make_config_file(tmp_path)), "--keys", str(sec),
                 "--in", "synthetic", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "seeds 'error_seed' and 'keys.lattice_seed' are equal mod 2**64" in err
    assert not out.exists()


@pytest.mark.parametrize("seed, name", [("key", "keys.key_seed"),
                                        ("lattice", "keys.lattice_seed")])
def test_cli_transmit_refuses_a_data_seed_equal_to_a_key_files_seed(
        tmp_path, capsys, seed, name):
    # synthetic image i comes from the (seeds.data, i) stream, S and U from
    # (key_seed, 0) and A from (lattice_seed, 0): a known image would give
    # those draws away, so the rule holds whatever --in sends
    key_dir = tmp_path / "keys"
    key_dir.mkdir()
    key_cfg = make_config_file(key_dir, seeds={seed: 5, "data": 9})
    pub, sec = key_dir / "pub.json", key_dir / "sec.json"
    assert main(["keygen", "--config", str(key_cfg), "--out", str(pub), str(sec)]) == 0
    capsys.readouterr()
    img = tmp_path / "x.pgm"
    write_image(img, np.zeros((4, 4, 1)))
    out = tmp_path / "tx.csv"
    for infile in ("synthetic", str(img)):
        assert main(["transmit", "--config", str(make_config_file(tmp_path)),
                     "--keys", str(sec), "--in", infile, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"seeds 'seeds.data' and '{name}' are equal mod 2**64" in err
        assert not out.exists()


def test_cli_attack_with_sabotage_control(tmp_path, capsys):
    cfg_path = make_config_file(
        tmp_path, dataset=images(400),
        attack={"adversary": "linear", "epochs": 5, "seed": 6})
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", str(cfg_path), "--out", str(out),
                 "--sabotage-control"]) == 0
    text = out.read_text().strip().split("\n")
    assert len(text) == 3  # header + fresh + sabotage rows


def test_cli_attack_checks_the_default_attack_seed(tmp_path, capsys):
    # with no attack section the attack plays seed 0: a config seed of 0
    # would key the same stream, though every other command may run it
    cfg_path = make_config_file(
        tmp_path, dataset=images(40), seeds={"key": 1, "lattice": 2, "data": 0})
    assert main(["attack", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and (
        "config keys 'seeds.data' and 'attack.seed' are equal mod 2**64") in err
    assert main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a.csv")]) == 0


def test_cli_failed_sabotage_control_exits_1(tmp_path, capsys, monkeypatch):
    # an attack that never beats the baseline: the control fails
    from securejscc import security
    real = security.run_cpa_attack

    def blind(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, adversary_mse=report.baseline_mse)
    monkeypatch.setattr(security, "run_cpa_attack", blind)
    cfg_path = make_config_file(tmp_path, dataset=images(40))
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", str(cfg_path), "--out", str(out),
                 "--sabotage-control"]) == 1
    assert capsys.readouterr().err == (
        "SABOTAGE CONTROL FAILED: reused-error attack did not beat the baseline, "
        "the harness cannot be trusted\n")
    assert len(out.read_text().strip().split("\n")) == 3  # the report is written


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


def test_cli_codec_params_round_trip(tmp_path):
    # a trained codec file drives the sweep and transmit commands
    cfg_path = make_config_file(tmp_path, **{**MLP_TRAINING, "training": {
        **MLP_TRAINING["training"], "max_steps": 4}})
    codec_path = tmp_path / "codec.json"
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    assert main(["train", "--config", str(cfg_path), "--out", str(codec_path)]) == 0
    assert main(["keygen", "--config", str(cfg_path), "--out", str(pub), str(sec)]) == 0
    with_params = ["--config", str(cfg_path), "--codec-params", str(codec_path)]
    for name in ("a.csv", "b.csv"):
        assert main(["sweep", *with_params, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert main(["transmit", *with_params, "--keys", str(sec), "--in", "synthetic",
                 "--out", str(tmp_path / "t.csv")]) == 0


def test_cli_train_validation_streams_disjoint_from_training(tmp_path, monkeypatch):
    # every (seed, index) stream each draw of the chain keys: error triples
    # come from derive_error_rows, channel noise from channel_noise;
    # validation's draws are the ones evaluate is handed
    from securejscc import pipeline, training
    drawn, evaluated = [], []  # [draws, its streams] per draw; evaluate's draws

    def spy(fn, at):  # args[at], args[at + 1] are the seed and the indices
        def wrapper(*args):
            seed, indices = args[at:at + 2]
            drawn[-1][1].update((seed, int(i)) for i in indices)
            return fn(*args)
        return wrapper

    def draw_messages(*args):
        drawn.append([None, set()])
        drawn[-1][0] = real_draw(*args)
        return drawn[-1][0]

    def evaluate(images, params, ctx, draws):
        evaluated.append(draws)
        return real_evaluate(images, params, ctx, draws)

    real_draw, real_evaluate = pipeline.draw_messages, training.evaluate
    monkeypatch.setattr(pipeline, "derive_error_rows", spy(pipeline.derive_error_rows, 0))
    monkeypatch.setattr(pipeline, "channel_noise", spy(pipeline.channel_noise, 3))
    monkeypatch.setattr(pipeline, "draw_messages", draw_messages)
    monkeypatch.setattr(training, "evaluate", evaluate)
    cfg_path = make_config_file(tmp_path, **MLP_TRAINING)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "codec.json")]) == 0
    assert evaluated and all(any(d is draws for draws, _ in drawn) for d in evaluated)
    val = set().union(*(s for draws, s in drawn if any(d is draws for d in evaluated)))
    train = set().union(*(s for draws, s in drawn if all(d is not draws for d in evaluated)))
    assert train and val
    assert not train & val


@pytest.mark.parametrize("over, message", [
    ({"training": {"max_steps": 0}}, "training.max_steps must be at least 1"),
    ({"training": {"batch_size": -1}}, "training.batch_size must be at least 1"),
    ({"n_levels": 1}, "n_levels must lie in [2, lwe.p = 251], got 1"),
    ({"n_levels": 252}, "n_levels must lie in [2, lwe.p = 251], got 252"),
    ({"snr_grid_db": []}, "snr_grid_db must name at least one SNR"),
    # removed settings: each exits 2 with one line naming it
    ({"sigma_l": 5.0}, "unknown config key 'sigma_l'"),
    ({"attack": {"test_fraction": 0.2}}, "unknown config key 'attack.test_fraction'"),
    ({"training": {"val_fraction": -0.5}},
     "training.val_fraction must lie in (0, 1), got -0.5"),
    ({"training": {"val_fraction": 0}}, "training.val_fraction must lie in (0, 1), got 0.0"),
    ({"training": {"val_fraction": 1}}, "training.val_fraction must lie in (0, 1), got 1.0"),
    ({"training": {"shuffle_seed": 5}},
     "config keys 'seeds.data' and 'training.shuffle_seed' are equal mod 2**64"),
    ({"training": {"learning_rate": 0}},
     "training.learning_rate must be positive, got 0.0"),
    ({"training": {"learning_rate": -1e-3}},
     "training.learning_rate must be positive, got -0.001"),
    ({"training": {"snr_train_db": -4000}},
     "config key 'training.snr_train_db' must be finite or +inf dB"),
])
def test_cli_unworkable_settings_exit_2(tmp_path, capsys, over, message):
    cfg_path = make_config_file(tmp_path, **{**MLP_TRAINING, **over})
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "codec.json")]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "codec.json").exists()


@pytest.mark.parametrize("seeds, keys", [
    # validation flips each seed's top bit: here onto the training channel seed
    ({"error": 3, "channel": 3 + 2 ** 63}, "'seeds.channel' and 'seeds.error ^ 2**63'"),
    ({"data": 2 ** 63 + 4}, "'seeds.data' and 'seeds.channel ^ 2**63'"),
    ({"key": 2 ** 63 + 3}, "'seeds.key' and 'seeds.error ^ 2**63'"),
])
def test_cli_train_validation_seed_clash_fails_before_keygen(tmp_path, capsys,
                                                             monkeypatch, seeds, keys):
    # the validation seeds are derived at load, so their clash is a config error
    from securejscc import cli
    calls = []
    monkeypatch.setattr(cli, "keygen", lambda *args: calls.append(args))
    cfg_path = make_config_file(tmp_path, **MLP_TRAINING,
                                seeds={"error": 3, "channel": 4, **seeds})
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "codec.json")]) == 2
    err = capsys.readouterr().err
    assert f"config keys {keys} are equal mod 2**64" in err and err.count("\n") == 1
    assert calls == [] and not (tmp_path / "codec.json").exists()


@pytest.mark.parametrize("snr_db", [-4000, 3100, 3300])
def test_cli_sweep_snr_beyond_float64_fails_before_keygen(tmp_path, capsys, monkeypatch,
                                                          snr_db):
    # the noise variance overflows, is subnormal, or underflows to 0 (which
    # would send the row down the noiseless path)
    from securejscc import cli
    calls = []
    monkeypatch.setattr(cli, "keygen", lambda *args: calls.append(args))
    cfg_path = make_config_file(tmp_path, snr_grid_db=[5.0, snr_db])
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "a.csv")]) == 2
    err = capsys.readouterr().err
    assert (f"config key 'snr_grid_db[1]' must be finite or +inf dB with a noise variance "
            f"in float64's normal range, got {float(snr_db)} dB") in err
    assert err.count("\n") == 1
    assert calls == [] and not (tmp_path / "a.csv").exists()


def test_cli_train_identity_codec_fails_before_keygen(tmp_path, capsys, monkeypatch):
    # only a codec with parameters trains: the identity map has none
    from securejscc import cli
    calls = []
    monkeypatch.setattr(cli, "keygen", lambda *args: calls.append(args))
    cfg_path = make_config_file(tmp_path, **{**MLP_TRAINING, "codec": {"kind": "identity"}})
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "codec.json")]) == 2
    err = capsys.readouterr().err
    assert err == "securejscc train: the identity codec has no parameters to train\n"
    assert calls == [] and not (tmp_path / "codec.json").exists()


@pytest.mark.parametrize("over", [
    {"training": {"val_fraction": 0.98}},  # 20 images, 20 held out
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


# a misspelled key in any section, whichever command reads the config
@pytest.mark.parametrize("over, key", [
    ({"n_level": 16}, "n_level"),
    ({"lwe": {"p": 251, "n1": 16, "n2": 16, "sigma_s": 1.5, "k": 16, "sigma": 1.5}},
     "lwe.sigma"),
    ({"codec": {"kind": "identity", "hiden_sizes": []}}, "codec.hiden_sizes"),
    ({"dataset": {**images(4), "chanels": 1}}, "dataset.chanels"),
    ({"seeds": {"lattise": 2}}, "seeds.lattise"),
    ({"training": {"max_step": 5}}, "training.max_step"),
    ({"game": {"trialz": 5}}, "game.trialz"),
    ({"game": {"lwe": {"sigma": 8.87}}}, "game.lwe.sigma"),
    ({"attack": {"adversery": "mlp"}}, "attack.adversery"),
])
@pytest.mark.parametrize("command", ["sweep", "keygen", "transmit", "train"])
def test_cli_misspelled_key_in_any_section_exits_2(tmp_path, capsys, command,
                                                   over, key):
    cfg_path = make_config_file(tmp_path, **over)
    out = str(tmp_path / "out")
    flags = {"sweep": ["--out", out], "keygen": ["--out", out, out + ".secret"],
             "transmit": ["--keys", str(tmp_path / "secret.json"),
                          "--in", "synthetic", "--out", out],
             "train": ["--out", out]}[command]
    assert main([command, "--config", str(cfg_path), *flags]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key '{key}'" in err and err.count("\n") == 1
    assert not Path(out).exists()


def test_sweep_config_with_one_image_loads(tmp_path):
    # the split is checked by train, not by the loader
    cfg = load_config(make_config_file(tmp_path, dataset={
        "kind": "blob", "count": 1, "height": 4, "width": 4}))
    assert cfg.dataset.count == 1


# the config settings of an attack run, which sends one pair per image
@pytest.mark.parametrize("attack, message", [
    ({"dataset": images(1)}, "test fraction leaves no training pairs"),
    ({"attack": {"test_fraction": 0.2}}, "unknown config key 'attack.test_fraction'"),
    ({"attack": {"pairs": 50}}, "unknown config key 'attack.pairs'"),
    ({"attack": {"dataset": images(7)}}, "unknown config key 'attack.dataset'"),
    ({"dataset": images(0)}, "config key 'dataset.count' is 0, one attack pair per "
     "image: need at least one (image, ciphertext) pair"),
    ({"dataset": images(1)}, "config key 'dataset.count' is 1, one attack pair per "
     "image: test fraction leaves no training pairs"),
    ({"sigma_l": 5.0}, "unknown config key 'sigma_l'"),
    # Eve's noise variance overflows or turns subnormal (at 3300 dB, below,
    # it underflows to 0)
    ({"attack": {"snr_e_db": -4000}}, "config key 'attack.snr_e_db' must be finite"),
    ({"attack": {"snr_e_db": 3100}}, "config key 'attack.snr_e_db' must be finite"),
    ({"attack": {"epochs": 0}}, "config key 'attack.epochs' must be at least 1, got 0"),
    ({"attack": {"snr_e_db": 3300}}, "config key 'attack.snr_e_db' must be finite or +inf dB"),
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
