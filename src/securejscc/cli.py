"""Command line front end.

Subcommands: keygen, transmit, sweep, indcpa, attack, train. All of them
read JSON config files; see README for the schema. A bad config, key,
codec or image file, a missing path, or a lattice too large to allocate,
ends the command with one line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import security, training
from .config import (load_attack_config, load_codec, load_config,
                     load_game_config, load_secret_key, save_codec,
                     save_key_files)
from .datasets import read_image, synthesize_dataset
from .lwe import keygen
from .modem import SIGMA_L_DEFAULT, build_constellation
from .pipeline import records_to_csv, sweep
from .quantizer import QuantizerConfig
from .rng import check_distinct


def _cmd_keygen(args) -> int:
    cfg = load_config(args.config)
    key = keygen(cfg.lwe, cfg.seeds.key, cfg.seeds.lattice)
    public_path, secret_path = args.out
    save_key_files(key, public_path, secret_path)
    print(f"wrote public key to {public_path} and secret key to {secret_path}")
    return 0


def _codec_params(cfg, codec_params_path):
    if codec_params_path:
        spec, params = load_codec(codec_params_path)
        if spec != cfg.codec:
            raise ValueError("codec parameter file does not match the config spec")
        return params
    if cfg.codec.kind != "identity":
        raise ValueError(f"{cfg.codec.kind} codec needs --codec-params")
    return {}


def _sweep_to_csv(cfg, keys, images, snr_grid_db, codec_params_path, out) -> int:
    """Send ``images`` at every SNR of the grid, write the CSV to ``out`` and
    return its record count."""
    records = sweep(images, cfg.codec, _codec_params(cfg, codec_params_path), keys,
                    QuantizerConfig(cfg.lwe.p, cfg.n_levels),
                    build_constellation(cfg.lwe.p), list(snr_grid_db),
                    SIGMA_L_DEFAULT, cfg.seeds.error, cfg.seeds.channel)
    Path(out).write_text(records_to_csv(records))
    return len(records)


def _cmd_transmit(args) -> int:
    cfg = load_config(args.config)
    keys = load_secret_key(args.keys)
    check_distinct({"seeds.data": cfg.seeds.data, "keys.key_seed": keys.key_seed,
                    "keys.lattice_seed": keys.lattice_seed})
    if keys.params != cfg.lwe:
        raise ValueError("key file parameters do not match the config")
    images = (synthesize_dataset(cfg.dataset, cfg.seeds.data)
              if args.infile == "synthetic" else [read_image(args.infile)])
    # the codec's input shape is the dataset's
    if images and images[0].shape != cfg.codec.input_shape:
        raise ValueError(f"{args.infile}: image shape {images[0].shape} differs from "
                         f"config keys 'dataset.height', 'dataset.width', "
                         f"'dataset.channels' = {cfg.codec.input_shape}")
    # one grid point: message and image indices both run 0 .. n-1
    n = _sweep_to_csv(cfg, keys, images, cfg.snr_grid_db[:1], args.codec_params,
                      args.out)
    print(f"wrote {n} records to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    n = _sweep_to_csv(cfg, keygen(cfg.lwe, cfg.seeds.key, cfg.seeds.lattice),
                      synthesize_dataset(cfg.dataset, cfg.seeds.data),
                      cfg.snr_grid_db, args.codec_params, args.out)
    print(f"wrote {n} records ({len(cfg.snr_grid_db)} SNR points) to {args.out}")
    return 0


def _cmd_indcpa(args) -> int:
    cfg = load_game_config(args.config)
    result = security.run_ind_cpa_game(cfg)
    print(result.summary())
    if args.out:
        Path(args.out).write_text(
            security.GAME_CSV_HEADER + "\n" + result.csv_row() + "\n")
        print(f"wrote game report to {args.out}")
    return 0


def _cmd_attack(args) -> int:
    cfg, attack_cfg = load_attack_config(args.config)
    keys = keygen(cfg.lwe, cfg.seeds.key, cfg.seeds.lattice)
    qcfg = QuantizerConfig(cfg.lwe.p, cfg.n_levels)
    params = _codec_params(cfg, args.codec_params)

    attack_cfgs = [attack_cfg]
    if args.sabotage_control:
        # a noiseless eavesdropper: the control tests the harness, not the channel
        attack_cfgs.append(replace(attack_cfg, error_mode="reused", adversary="linear",
                                   snr_e_db=math.inf))
    reports = [security.run_cpa_attack(c, cfg.codec, params, keys.public(), qcfg)
               for c in attack_cfgs]
    # the sabotage control, when run, is the last report
    sabotage_ok = not args.sabotage_control or reports[-1].mse_ratio < 0.5

    for report in reports:
        print(report.summary())
        print()
    if args.out:
        rows = [security.ATTACK_CSV_HEADER] + [r.csv_row() for r in reports]
        Path(args.out).write_text("\n".join(rows) + "\n")
        print(f"wrote attack report to {args.out}")
    if not sabotage_ok:
        print("SABOTAGE CONTROL FAILED: reused-error attack did not beat the "
              "baseline, the harness cannot be trusted", file=sys.stderr)
        return 1
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    tr = cfg.training
    n_val = max(1, int(round(cfg.dataset.count * tr.val_fraction)))
    if n_val >= cfg.dataset.count:
        raise ValueError(f"training.val_fraction = {tr.val_fraction} of dataset.count "
                         f"= {cfg.dataset.count} images leaves none to train on")
    state = training.init_train_state(cfg.codec, tr.init_seed, tr.learning_rate)
    keys = keygen(cfg.lwe, cfg.seeds.key, cfg.seeds.lattice)
    images = synthesize_dataset(cfg.dataset, cfg.seeds.data)
    train_images, val_images = images[:-n_val], images[-n_val:]
    qcfg = QuantizerConfig(cfg.lwe.p, cfg.n_levels)
    cons = build_constellation(cfg.lwe.p)
    ctx = training.TrainContext(
        spec=cfg.codec, keys=keys, qcfg=qcfg, cons=cons,
        snr_db=tr.snr_train_db, sigma_l=SIGMA_L_DEFAULT,
        error_seed=cfg.seeds.error, channel_seed=cfg.seeds.channel)
    val_error, val_channel = cfg.seeds.validation().values()
    eval_ctx = replace(ctx, error_seed=val_error, channel_seed=val_channel)
    result = training.train_codec(
        train_images, val_images, ctx, state, max_steps=tr.max_steps,
        batch_size=tr.batch_size, shuffle_seed=tr.shuffle_seed, eval_ctx=eval_ctx)
    save_codec(cfg.codec, result.state.params, args.out)
    print(f"trained {result.state.step} steps; "
          f"val loss {result.val_losses[0]:.4f} -> {result.val_losses[-1]:.4f}; "
          f"saved parameters to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="securejscc",
        description="encrypted joint source-channel transmission toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate the config's key pair")
    p.add_argument("--config", required=True)
    p.add_argument("--out", nargs=2, required=True,
                   metavar=("PUBLIC", "SECRET"))
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("transmit", help="send images at the first grid SNR")
    p.add_argument("--config", required=True)
    p.add_argument("--keys", required=True, help="secret key file")
    p.add_argument("--in", dest="infile", required=True,
                   help="'synthetic' or a PGM/PPM image path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--codec-params", default=None)
    p.set_defaults(func=_cmd_transmit)

    p = sub.add_parser("sweep", help="full dataset x SNR grid sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--codec-params", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("indcpa", help="run the indistinguishability game")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="optional CSV report path")
    p.set_defaults(func=_cmd_indcpa)

    p = sub.add_parser("attack", help="run the chosen-plaintext attack")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="optional CSV report path")
    p.add_argument("--codec-params", default=None)
    p.add_argument("--sabotage-control", action="store_true",
                   help="also run the reused-error control; exit 1 if it fails")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("train", help="train the configured codec")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="codec parameter file to write")
    p.set_defaults(func=_cmd_train)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"securejscc {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
