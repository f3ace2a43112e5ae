import dataclasses
import json
import math

import numpy as np
import pytest

from securejscc.cli import main
from securejscc.config import (PipelineConfig, attack_config_from_dict,
                               config_from_dict, game_config_from_dict,
                               load_config)
from securejscc.datasets import DatasetSpec
from securejscc.lwe import load_public_key, load_secret_key


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
])
def test_unknown_key_rejected_at_load(raw, key):
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        config_from_dict(raw)


def test_missing_section_key_rejected_at_load():
    with pytest.raises(ValueError, match="missing config key 'dataset.count'"):
        config_from_dict({"dataset": {"kind": "blob", "height": 4, "width": 4}})


def test_game_and_attack_sections_allowed():
    config_from_dict({"game": {"trials": 200}, "attack": {"pairs": 10}})


@pytest.mark.parametrize("raw, key", [
    ({"trails": 200}, "game.trails"),
    ({"lwe": {"sigma": 8.87}}, "game.lwe.sigma"),
])
def test_game_loader_rejects_unknown_key(raw, key):
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        game_config_from_dict(raw)


@pytest.mark.parametrize("raw, key", [
    ({"pair": 10}, "attack.pair"),
    ({"dataset": {"kind": "blob", "count": 0, "height": 4, "width": 4,
                  "chanels": 1}}, "attack.dataset.chanels"),
])
def test_attack_loader_rejects_unknown_key(raw, key):
    cfg = config_from_dict({})
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        attack_config_from_dict(raw, cfg.dataset)


def test_attack_dataset_count_is_optional():
    # run_cpa_attack draws one image per pair, so count is never read
    cfg = config_from_dict({})
    attack = attack_config_from_dict(
        {"pairs": 30, "dataset": {"kind": "blob", "height": 4, "width": 4}},
        cfg.dataset)
    assert attack.dataset == DatasetSpec("blob", 30, 4, 4, 1)


def test_k_mismatch_rejected():
    with pytest.raises(ValueError):
        config_from_dict({"lwe": {"k": 100},
                          "codec": {"kind": "mlp", "k": 99}})


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
        "codec": {"kind": "identity", "k": 16, "latent_scale": 251 / 256},
        "snr_grid_db": [5.0, 15.0],
        "seeds": {"key": 1, "lattice": 2, "error": 3, "channel": 4, "data": 5},
    }
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_keygen_and_key_files(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"p": 251, "n1": 16, "n2": 16,
                                  "sigma_s": 1.5, "k": 16,
                                  "key_seed": 7, "lattice_seed": 8}))
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    assert main(["keygen", "--params", str(params),
                 "--out", str(pub), str(sec)]) == 0
    loaded = load_secret_key(sec)
    assert loaded.key_seed == 7
    assert np.array_equal(load_public_key(pub).B, loaded.B)


@pytest.mark.parametrize("raw, message", [
    ({"p": 251, "n1": 16, "n2": 16, "sigma_s": 1.5, "sigma": 1.5, "k": 16},
     "unknown config key 'sigma'"),
    ({"p": 251, "n1": 16, "n2": 16, "sigma_s": 1.5}, "missing config key 'k'"),
])
def test_cli_keygen_bad_params_file_exits_2(tmp_path, capsys, raw, message):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**raw, "key_seed": 7, "lattice_seed": 8}))
    code = main(["keygen", "--params", str(params),
                 "--out", str(tmp_path / "p"), str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_cli_keygen_requires_seeds(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"p": 251, "n1": 16, "n2": 16,
                                  "sigma_s": 1.5, "k": 16}))
    code = main(["keygen", "--params", str(params),
                 "--out", str(tmp_path / "p"), str(tmp_path / "s")])
    assert code == 2
    assert "key_seed and lattice_seed" in capsys.readouterr().err


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
    assert main(["sweep", "--config", str(missing)]) == 2
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
    from securejscc.datasets import write_image
    cfg_path = make_config_file(tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"p": 251, "n1": 16, "n2": 16,
                                  "sigma_s": 1.5, "k": 16,
                                  "key_seed": 1, "lattice_seed": 2}))
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    main(["keygen", "--params", str(params), "--out", str(pub), str(sec)])
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


def test_cli_transmit_key_file_missing_field_exits_2(tmp_path, capsys):
    cfg_path = make_config_file(tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"p": 251, "n1": 16, "n2": 16,
                                  "sigma_s": 1.5, "k": 16,
                                  "key_seed": 1, "lattice_seed": 2}))
    pub, sec = tmp_path / "pub.json", tmp_path / "sec.json"
    assert main(["keygen", "--params", str(params), "--out", str(pub), str(sec)]) == 0
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
        tmp_path,
        dataset={"kind": "blob", "count": 0, "height": 4, "width": 4,
                 "channels": 1},
        attack={"adversary": "linear", "pairs": 400, "epochs": 5, "seed": 1})
    out = tmp_path / "attack.csv"
    assert main(["attack", "--config", str(cfg_path), "--out", str(out),
                 "--sabotage-control"]) == 0
    text = out.read_text().strip().split("\n")
    assert len(text) == 3  # header + fresh + sabotage rows


def test_cli_train_writes_codec(tmp_path):
    cfg_path = make_config_file(
        tmp_path,
        dataset={"kind": "blob", "count": 20, "height": 4, "width": 4,
                 "channels": 1},
        codec={"kind": "mlp", "k": 16, "hidden_sizes": [12],
               "latent_scale": 251.0},
        training={"max_steps": 30, "batch_size": 5, "snr_train_db": 10.0})
    out = tmp_path / "codec.json"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    from securejscc.codec import load_codec
    spec, params = load_codec(out)
    assert spec.kind == "mlp"
    assert params
