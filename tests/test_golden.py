"""Golden outputs: a small sweep CSV, the CLI sweep of ``configs/sweep.json``,
a short toy training run, two IND-CPA games and the inputs of a small
chosen-plaintext attack.

The sweep and training values were computed before the chain was batched;
any change to the arithmetic of the chain (encryption, channel,
demodulation, decryption, dequantization, codec) that is not bit-exact
shows up here. The game counts pin keygen, encryption and both honest
distinguishers. The attack pin covers the arrays the attack fits on, its
images and ciphertexts, not its report: the ridge fit makes the report
depend on the BLAS thread count.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

from securejscc import security
from securejscc.cli import main
from securejscc.codec import CodecSpec
from securejscc.datasets import DatasetSpec, synthesize_dataset
from securejscc.lwe import LweParams, keygen
from securejscc.modem import build_constellation
from securejscc.pipeline import records_to_csv, sweep
from securejscc.quantizer import QuantizerConfig
from securejscc.security import AttackConfig, GameConfig, run_ind_cpa_game
from securejscc.training import TrainContext, init_train_state, train_codec

SWEEP_CSV_SHA256 = "a40c638d695d8df76dc1ac89554552ef25a8be4a3ce421a2d0867c0af36ebe29"
CLI_SWEEP_CSV_SHA256 = "ef2005ff23df89e802a088fa8468a53b1878b1bd855b400d2ef7f8fab865e22e"
TRAIN_LOSSES = ["0x1.fbcc793a51200p+12", "0x1.e467606e700cep+12"]
VAL_LOSSES = ["0x1.f2260c09d06c0p+12", "0x1.e20f7ee6450f2p+12"]
GAME_CORRECT = {"marginal_chisq": 101, "trained_classifier": 98}
ATTACK_IMAGES_SHA256 = "299f9a61ed531050132a187d4204e2069a7db85a754242c0c30f6120b78f47b6"
# (c, d) of the attack's ciphertexts in each error mode
ATTACK_CIPHERTEXT_SHA256 = {
    "fresh": ("daecc594f5bd376c4f7df3e1cdb26223c84a139a135c4bd7696477cd7e464137",
              "86284347b832e2c89c6d61706c61dbe98243ae6faf3a16eceebb7129cb5141a5"),
    "reused": ("67f96ad2f79451c2a7bdb0ba408aad6a42ef2e2b0326d79c7f4c88fc72de0fd8",
               "7a52c812805956a92789aefb01ebb18c105a469e0924ea03fbbfbc5bc0f446a9")}


def test_identity_sweep_csv_is_pinned():
    lwe = LweParams(p=4093, n1=192, n2=192, sigma_s=8.87, k=256)
    spec = CodecSpec(kind="identity", input_shape=(16, 16, 1), k=256,
                     latent_scale=4093 / 256.0)
    images = synthesize_dataset(DatasetSpec("blob", 3, 16, 16, 1), 5)
    records = sweep(images, spec, {}, keygen(lwe, 1, 2),
                    QuantizerConfig(4093, 16), build_constellation(4093, 1.0),
                    [0.0, 10.0, math.inf], 5.0, 3, 4)
    csv = records_to_csv(records)
    assert hashlib.sha256(csv.encode()).hexdigest() == SWEEP_CSV_SHA256


def test_cli_sweep_csv_is_pinned(tmp_path):
    # 100 images x 5 SNRs from an integer grid, which the config loader
    # turns into floats
    config = Path(__file__).parents[1] / "configs" / "sweep.json"
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_SWEEP_CSV_SHA256


def test_toy_training_losses_are_pinned():
    lwe = LweParams(p=251, n1=16, n2=16, sigma_s=1.5, k=16)
    keys = keygen(lwe, 101, 102)
    spec = CodecSpec(kind="mlp", input_shape=(8, 8, 1), k=16,
                     latent_scale=251.0, hidden_sizes=(32,))
    qcfg = QuantizerConfig(251, 16)
    cons = build_constellation(251, 1.0)
    images = synthesize_dataset(DatasetSpec("blob", 120, 8, 8, 1), 5)

    def ctx(error_seed, channel_seed):
        return TrainContext(spec=spec, keys=keys, qcfg=qcfg, cons=cons,
                            snr_db=10.0, sigma_l=5.0, error_seed=error_seed,
                            channel_seed=channel_seed)

    state = init_train_state(spec, seed=7, learning_rate=3e-4)
    result = train_codec(images[:100], images[100:], ctx(3, 4), state,
                         max_steps=20, batch_size=10, shuffle_seed=9,
                         eval_ctx=ctx(31, 41))
    assert [v.hex() for v in result.train_losses] == TRAIN_LOSSES
    assert [v.hex() for v in result.val_losses] == VAL_LOSSES


def test_game_correct_counts_are_pinned():
    params = LweParams(p=257, n1=32, n2=32, sigma_s=8.87, k=16)
    for name, correct in GAME_CORRECT.items():
        result = run_ind_cpa_game(GameConfig(trials=200, params=params,
                                             seed=2026, distinguisher=name))
        assert (result.distinguisher, result.correct) == (name, correct)


def array_sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_attack_inputs_are_pinned(monkeypatch):
    lwe = LweParams(p=4093, n1=64, n2=64, sigma_s=8.87, k=64)
    public = keygen(lwe, 21, 22).public()
    spec = CodecSpec(kind="identity", input_shape=(8, 8, 1), k=64,
                     latent_scale=4093 / 256.0)
    seen = {}

    def recording(name, f):
        def wrapper(*args, **kwargs):
            seen[name] = f(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(security, f.__name__, wrapper)

    recording("images", security.synthesize_dataset)
    recording("ct", security.encrypt)
    for mode, (c_sha, d_sha) in ATTACK_CIPHERTEXT_SHA256.items():
        cfg = AttackConfig(pairs=60, dataset=DatasetSpec("blob", 0, 8, 8, 1),
                           error_mode=mode, seed=11)
        security.run_cpa_attack(cfg, spec, {}, public, QuantizerConfig(4093, 16))
        # both modes synthesize the same images from the attack's data seed
        assert array_sha256(np.stack(seen["images"])) == ATTACK_IMAGES_SHA256
        assert seen["ct"].c.dtype == seen["ct"].d.dtype == np.int64
        assert (array_sha256(seen["ct"].c), array_sha256(seen["ct"].d)) == (c_sha, d_sha)
