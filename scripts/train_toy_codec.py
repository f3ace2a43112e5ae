#!/usr/bin/env python3
"""Train the small dense codec through the encrypted channel and report.

Uses a reduced modulus so the quantizer spacing, the lattice noise and the
channel noise all live on comparable scales; the decoder learns to undo
the compound perturbation.
"""

import argparse

import numpy as np

from securejscc.codec import CodecSpec
from securejscc.config import save_codec
from securejscc.datasets import DatasetSpec, synthesize_dataset
from securejscc.lwe import LweParams, keygen
from securejscc.modem import build_constellation
from securejscc.quantizer import QuantizerConfig
from securejscc.training import TrainContext, init_train_state, train_codec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=4000)
    parser.add_argument("--snr", type=float, default=10.0)
    parser.add_argument("--out", default="toy_codec.json")
    args = parser.parse_args()

    lwe = LweParams(p=251, n1=16, n2=16, sigma_s=1.5, k=16)
    keys = keygen(lwe, 101, 102)
    spec = CodecSpec(kind="mlp", input_shape=(8, 8, 1), k=16,
                     latent_scale=float(lwe.p), hidden_sizes=(32,))
    images = synthesize_dataset(DatasetSpec("blob", 600, 8, 8, 1), 5)
    qcfg = QuantizerConfig(lwe.p, 16)
    cons = build_constellation(lwe.p, 1.0)

    ctx = TrainContext(spec=spec, keys=keys, qcfg=qcfg, cons=cons,
                       snr_db=args.snr, sigma_l=5.0, error_seed=3,
                       channel_seed=4)
    eval_ctx = TrainContext(spec=spec, keys=keys, qcfg=qcfg, cons=cons,
                            snr_db=args.snr, sigma_l=5.0, error_seed=31,
                            channel_seed=41)
    state = init_train_state(spec, seed=7, learning_rate=3e-4)
    result = train_codec(images[:500], images[500:], ctx, state,
                         max_steps=args.steps, batch_size=10,
                         shuffle_seed=9, eval_ctx=eval_ctx)

    val = np.stack([im.reshape(-1) for im in images[500:]])
    baseline = float(np.mean((val - val.mean(axis=0)) ** 2))
    print(f"steps: {result.state.step}  early stop: {result.stopped_early}")
    print(f"validation MSE: {result.val_losses[0]:.1f} -> "
          f"{result.val_losses[-1]:.1f} (mean-image baseline {baseline:.1f})")
    save_codec(spec, result.state.params, args.out)
    print(f"saved codec parameters to {args.out}")


if __name__ == "__main__":
    main()
