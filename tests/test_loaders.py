"""The JSON loaders: malformed inputs end in one line and exit 2, and any
value put where another belongs gives a result or a ValueError."""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from securejscc import (CodecSpec, LweParams, keygen, load_codec,
                        load_public_key, load_secret_key, save_codec,
                        save_key_files)
from securejscc.cli import main
from securejscc.codec import init_params
from securejscc.config import (attack_config_from_dict, config_from_dict,
                               game_config_from_dict)
from securejscc.rng import stream

LWE = {"p": 251, "n1": 16, "n2": 16, "sigma_s": 1.5, "k": 16}
CONFIG = {
    "lwe": LWE,
    "dataset": {"kind": "blob", "count": 4, "height": 4, "width": 4, "channels": 1},
    "codec": {"kind": "identity"},
    "snr_grid_db": [5.0, "inf"],
    "seeds": {"key": 1, "lattice": 2, "error": 3, "channel": 4, "data": 5},
}
MLP_SPEC = CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=16, latent_scale=251.0,
                     hidden_sizes=(4,))
MLP_CONFIG = {
    **CONFIG,
    "dataset": {"kind": "blob", "count": 10, "height": 4, "width": 4, "channels": 1},
    "codec": {"kind": "mlp", "hidden_sizes": [4]},
    "training": {"max_steps": 2, "batch_size": 4},
}
DELETE = object()


@pytest.fixture
def files(tmp_path):
    """Valid inputs of every kind, all consistent with one another."""
    paths = {name: tmp_path / name for name in (
        "cfg.json", "mlp.json", "pub.json", "sec.json",
        "codec.json", "img.pgm")}
    paths["cfg.json"].write_text(json.dumps(CONFIG))
    paths["mlp.json"].write_text(json.dumps(MLP_CONFIG))
    save_key_files(keygen(LweParams(**LWE), 1, 2), paths["pub.json"], paths["sec.json"])
    save_codec(MLP_SPEC, init_params(MLP_SPEC, stream(0)), paths["codec.json"])
    paths["img.pgm"].write_bytes(b"P5\n4 4\n255\n" + bytes(range(16)))
    return paths


def _edit(path, keys, value):
    """Set (or delete) the entry at ``keys`` of the JSON in ``path``; empty
    ``keys`` replaces the whole value."""
    if not keys:
        path.write_text(json.dumps(value))
        return
    blob = json.loads(path.read_text())
    parent = blob
    for key in keys[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    path.write_text(json.dumps(blob))


def _argv(command, files, out):
    return {
        "transmit": ["transmit", "--config", files["cfg.json"], "--keys",
                     files["sec.json"], "--in", "synthetic", "--out", out],
        "transmit_img": ["transmit", "--config", files["cfg.json"], "--keys",
                         files["sec.json"], "--in", files["img.pgm"], "--out", out],
        "sweep": ["sweep", "--config", files["cfg.json"], "--out", out],
        "sweep_mlp": ["sweep", "--config", files["mlp.json"], "--codec-params",
                      files["codec.json"], "--out", out],
        "train": ["train", "--config", files["mlp.json"], "--out", out],
        "keygen": ["keygen", "--config", files["cfg.json"], "--out", out,
                   str(out) + ".secret"],
    }[command]


# (command, file, keys to edit, new value, what the error line must name)
MALFORMED = [
    ("transmit", "sec.json", ("params", "q"), 1, "'params.q'"),
    ("transmit", "sec.json", ("params", "k"), DELETE, "'params.k'"),
    ("transmit", "sec.json", (), [1], "sec.json"),
    ("sweep", "cfg.json", ("lwe", "p"), "257", "'lwe.p'"),
    ("sweep", "cfg.json", (), [1], "cfg.json"),
    ("sweep", "cfg.json", ("lwe",), [1], "'lwe'"),
    ("sweep", "cfg.json", ("snr_grid_db",), 5, "'snr_grid_db'"),
    ("sweep", "cfg.json", ("dataset", "count"), 6.0, "'dataset.count'"),
    ("train", "mlp.json", ("training", "batch_size"), 2.5, "'training.batch_size'"),
    ("train", "mlp.json", ("codec", "hidden_sizes"), 4, "'codec.hidden_sizes'"),
    ("sweep_mlp", "codec.json", ("spec", "input_shape"), DELETE, "'spec.input_shape'"),
    ("sweep_mlp", "codec.json", ("params", "dec.W1"), DELETE, "'dec.W1'"),
    ("sweep", "cfg.json", ("lwe", "sigma_s"), math.inf, "'lwe.sigma_s'"),
    ("sweep", "cfg.json", ("n_levels",), 16.7, "'n_levels'"),
    ("keygen", "cfg.json", ("seeds", "key"), 1.7, "'seeds.key'"),
    ("sweep", "cfg.json", ("snr_grid_db",), ["-inf", 0], "'snr_grid_db[0]'"),
    ("transmit_img", "img.pgm", None, b"P5\n-4 4\n255\n" + bytes(16), "img.pgm"),
    ("transmit_img", "img.pgm", None, b"P5\n0 4\n255\n" + bytes(16), "img.pgm"),
    # an image must have the dataset's shape, and no codec key sets it
    ("transmit_img", "img.pgm", None, b"P5\n8 8\n255\n" + bytes(64),
     "'dataset.height', 'dataset.width', 'dataset.channels' = (4, 4, 1)"),
]


@pytest.mark.parametrize("command, name, keys, value, needle", MALFORMED,
                         ids=[f"row{i}" for i in range(1, len(MALFORMED) + 1)])
def test_malformed_input_exits_2_with_one_line(files, tmp_path, capsys,
                                               command, name, keys, value, needle):
    if keys is None:
        files[name].write_bytes(value)
    else:
        _edit(files[name], keys, value)
    out = tmp_path / "out"
    assert main([str(a) for a in _argv(command, files, out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err, err


def test_load_time_checks():
    with pytest.raises(ValueError, match="unknown loss 'l1'"):
        config_from_dict({"training": {"loss": "l1"}})
    # a float field given a JSON integer holds a float
    assert type(config_from_dict({"lwe": {"sigma_s": 2}}).lwe.sigma_s) is float
    cfg = config_from_dict({"snr_grid_db": ["inf", "Infinity", math.inf, 0]})
    assert cfg.snr_grid_db == (math.inf,) * 3 + (0.0,)
    for snr in ("5", "-inf", -math.inf, math.nan, True):
        with pytest.raises(ValueError, match="snr_grid_db"):
            config_from_dict({"snr_grid_db": [snr]})


@pytest.mark.parametrize("keys, value, message", [
    (("B",), [[0] * 16] * 15, "'B' must be a \\(16, 16\\) array of integers"),
    (("A", 0, 0), 251, r"'A' entries must lie in \[0, 251\)"),
    (("B", 3, 1), -1, r"'B' entries must lie in \[0, 251\)"),
    (("A", 0, 0), 1.0, "array of integers"),
    (("kind",), "secret", "not a public key file"),
    (("extra",), 1, "unknown public key file field 'extra'"),
])
def test_public_key_checked_against_its_params(files, keys, value, message):
    _edit(files["pub.json"], keys, value)
    with pytest.raises(ValueError, match=message):
        load_public_key(files["pub.json"])


@pytest.mark.parametrize("keys, value, message", [
    (("params", "enc.W0"), [[0.0] * 4] * 15, "'enc.W0' must be a \\(16, 4\\)"),
    (("params", "enc.b9"), [0.0], "unknown codec file params field 'enc.b9'"),
    (("params", "dec.b0", 0), math.nan, "'dec.b0' must be a \\(4,\\) array of finite"),
    (("params", "dec.b0", 0), None, "array of finite numbers"),
    (("spec", "hidden_sizes"), [64], "'enc.W0' must be a \\(16, 64\\)"),
])
def test_codec_file_checked_against_its_spec(files, keys, value, message):
    _edit(files["codec.json"], keys, value)
    with pytest.raises(ValueError, match=message):
        load_codec(files["codec.json"])


# -- fuzz: one or two values replaced by small drawn JSON values -------------

JSON_VALUES = st.one_of(
    st.integers(-2, 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["inf", "-inf", "Infinity", "NaN", "16", "mse", "blob", ""]),
    st.text(max_size=3),
    st.lists(st.integers(-2, 64) | st.floats(-4, 64), max_size=3),
    st.builds(dict), st.none(), st.booleans())


def _paths(blob, prefix=()):
    """The key path of every entry of every object in ``blob``."""
    for key, value in blob.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _replaced(blob, edits):
    blob = copy.deepcopy(blob)
    for keys, value in edits:
        parent = blob
        for key in keys[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            parent[keys[-1]] = value
    return blob


def _edits(blob):
    return st.lists(st.tuples(st.sampled_from(list(_paths(blob))), JSON_VALUES),
                    min_size=1, max_size=2)


def _file_blobs():
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        save_key_files(keygen(LweParams(p=17, n1=4, n2=4, sigma_s=2.0, k=3), 10, 20),
                       d / "pub.json", d / "sec.json")
        spec = CodecSpec(kind="mlp", input_shape=(2, 2, 1), k=3, latent_scale=17.0,
                         hidden_sizes=(2,))
        save_codec(spec, init_params(spec, stream(0)), d / "codec.json")
        return {name: json.loads((d / name).read_text())
                for name in ("pub.json", "sec.json", "codec.json")}


FILES = _file_blobs()
DICT_LOADERS = {
    "config": (config_from_dict, {**CONFIG, "n_levels": 16, "sigma_l": 5.0,
                                  "training": {"loss": "mse", "snr_train_db": 10.0}}),
    # the game plays the run's n_levels
    "game": (lambda raw: game_config_from_dict(raw["game"],
                                               config_from_dict(raw).n_levels),
             {**CONFIG, "n_levels": 16, "game": {
                 "trials": 200, "seed": 3, "distinguisher": "marginal_chisq",
                 "lwe": LWE}}),
    # the attack's pairs are the config's images
    "attack": (lambda raw: attack_config_from_dict(raw["attack"],
                                                   config_from_dict(raw).dataset),
               {**CONFIG, "attack": {"adversary": "linear", "epochs": 5,
                                     "snr_e_db": "inf", "test_fraction": 0.2}}),
}
FILE_LOADERS = {
    "public key": (load_public_key, FILES["pub.json"]),
    "secret key": (load_secret_key, FILES["sec.json"]),
    "codec": (load_codec, FILES["codec.json"]),
}


@pytest.mark.parametrize("name", DICT_LOADERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_loaders_return_or_raise_value_error(name, data):
    load, valid = DICT_LOADERS[name]
    load(valid)
    try:
        load(_replaced(valid, data.draw(_edits(valid))))
    except ValueError:
        pass


@pytest.mark.parametrize("name", FILE_LOADERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_file_loaders_return_or_raise_value_error(tmp_path_factory, name, data):
    load, valid = FILE_LOADERS[name]
    path = tmp_path_factory.mktemp("fuzz") / "f.json"
    path.write_text(json.dumps(valid))
    load(path)
    path.write_text(json.dumps(_replaced(valid, data.draw(_edits(valid)))))
    try:
        load(path)
    except ValueError:
        pass
