"""Structural check of stream construction: each keyed draw site builds a
small constant number of Philox generators per call or chunk, never one per
trial or message. Counted by wrapping ``np.random.Philox``; no timer."""

import math

import numpy as np
import pytest

from securejscc.datasets import SYNTH_CHUNK_PIXELS, DatasetSpec, synthesize_dataset
from securejscc import training
from securejscc.lwe import keygen
from securejscc.modem import build_constellation
from securejscc.pipeline import sweep
from securejscc.quantizer import QuantizerConfig
from securejscc.security import (GAME_CHUNK_ENTRIES, GameConfig, run_cpa_attack,
                                 run_ind_cpa_game)
from securejscc.training import init_train_state, train_codec
from test_pipeline import LWE, SPEC
from test_security import ATTACK_LWE, ATTACK_SPEC, GAME_LWE, make_attack_cfg
from test_training import MLP_SPEC, make_ctx


@pytest.fixture
def philox_built(monkeypatch):
    """A list that gains each Philox constructed from here on."""
    built, real = [], np.random.Philox

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


@pytest.mark.parametrize("name", ["marginal_chisq", "trained_classifier"])
def test_game_builds_philox_per_chunk(philox_built, name):
    run_ind_cpa_game(GameConfig(trials=100, params=GAME_LWE, seed=3,
                                distinguisher=name))
    chunks = math.ceil(100 / (GAME_CHUNK_ENTRIES // (GAME_LWE.n1 * GAME_LWE.n2)))
    # the trial, key, lattice and error streams, then the classifier's
    # adversary streams or the chi-square's tie-break coins (if any tie)
    assert 4 * chunks <= len(philox_built) <= 5 * chunks


def test_attack_builds_philox_per_call_and_synthesis_chunk(philox_built):
    public = keygen(ATTACK_LWE, 21, 22).public()
    built = len(philox_built)
    pairs = 500
    run_cpa_attack(make_attack_cfg(pairs=pairs, snr_e_db=10.0), ATTACK_SPEC, {},
                   public, QuantizerConfig(4093, 16))
    synth_chunks = math.ceil(pairs / (SYNTH_CHUNK_PIXELS // 64))
    # the attack's own stream, the error streams and Eve's channel streams
    assert len(philox_built) - built == 3 + synth_chunks


@pytest.mark.parametrize("batches_per_block", [None, 2], ids=["default", "two"])
def test_train_codec_builds_two_philox_per_draw_block(philox_built, monkeypatch,
                                                      batches_per_block):
    # 16 training images in batches of 8: the default block holds every
    # step of these runs, a block of two batches ceil(steps / 2) of them
    if batches_per_block:
        monkeypatch.setattr(training, "DRAW_BLOCK_ENTRIES",
                            batches_per_block * 8 * MLP_SPEC.k)
    ctx, eval_ctx = make_ctx(MLP_SPEC), make_ctx(MLP_SPEC, error_seed=31, channel_seed=41)
    images = synthesize_dataset(DatasetSpec("blob", 24, 4, 4, 1), 13)
    for steps in (3, 9):
        state = init_train_state(MLP_SPEC, 14)
        built = len(philox_built)
        train_codec(images[:16], images[16:], ctx, state, max_steps=steps,
                    batch_size=8, shuffle_seed=15, eval_ctx=eval_ctx)
        blocks = math.ceil(steps / batches_per_block) if batches_per_block else 1
        # the shuffle stream, validation's error and channel streams, then
        # each block's error streams and channel streams
        assert len(philox_built) - built == 1 + 2 + 2 * blocks


def test_sweep_builds_two_philox_per_chain_call(philox_built):
    keys = keygen(LWE, 1, 2)
    images = synthesize_dataset(DatasetSpec("blob", 2, 8, 8, 1), 5)
    built = len(philox_built)
    # two images over five SNRs: one image at every SNR per chain call
    sweep(images, SPEC, {}, keys, QuantizerConfig(4093, 16),
          build_constellation(4093), [0.0, 5.0, 10.0, 15.0, 20.0], 5.0, 3, 4)
    assert len(philox_built) - built == 2 * len(images)
