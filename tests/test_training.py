import math
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from securejscc import pipeline, training
from securejscc.codec import CodecSpec, FlatArrays, init_params
from securejscc.datasets import DatasetSpec, synthesize_dataset
from securejscc.lwe import LweParams, keygen
from securejscc.modem import build_constellation
from securejscc.quantizer import QuantizerConfig, anneal_sigma_q, hard_quantize
from securejscc.rng import stream
from securejscc.training import (PATIENCE, TrainContext, _gradients,
                                 _through_chain, evaluate, init_train_state,
                                 train_codec, train_step)
from test_quantizer import soft_quantize

TOY_LWE = LweParams(p=251, n1=16, n2=16, sigma_s=1.5, k=16)


def next_draws(batch, state, ctx):
    """The draws of the messages ``batch`` travels as in a training step."""
    return ctx.draw(state.messages_sent + np.arange(len(batch)))


def train_step_drawn(batch, state, ctx):
    """:func:`train_step` on the batch's own draws."""
    return train_step(batch, state, ctx, next_draws(batch, state, ctx))


def evaluate_drawn(images, params, ctx):
    """:func:`evaluate` on the draws of messages 0 .. len(images)-1."""
    return evaluate(images, params, ctx, ctx.draw(np.arange(len(images))))


def chain_gradients(batch, state, ctx):
    """Loss and gradients of :func:`train_step`, through the real chain."""
    grads = FlatArrays(state.params.shapes)
    return _gradients(batch, state.params, ctx, anneal_sigma_q(state.step),
                      _through_chain(ctx, next_draws(batch, state, ctx)), grads), grads


def surrogate_gradients(batch, state, ctx):
    """Gradients with the crypto/channel segment replaced by the identity.

    Forward uses the hard-quantized latent directly; backward is identical
    to :func:`chain_gradients`. With zero errors and a noiseless channel
    the two agree exactly, which pins down the gradient-routing contract.
    """
    grads = FlatArrays(state.params.shapes)
    return _gradients(batch, state.params, ctx, anneal_sigma_q(state.step),
                      lambda z: hard_quantize(z, ctx.qcfg).astype(np.float64),
                      grads), grads


def soft_surrogate_gradients(batch, params, ctx, sigma_q):
    """Loss and analytic gradients of the differentiable stand-in chain:
    encode -> soft quantize -> decode."""
    grads = FlatArrays(params.shapes)
    return _gradients(batch, params, ctx, sigma_q, lambda z: soft_quantize(
        z.ravel(), ctx.qcfg, sigma_q).reshape(z.shape), grads), grads


def soft_surrogate_loss(batch, params, ctx, sigma_q):
    """Scalar loss of the stand-in chain; finite differences of it are the
    reference for the analytic backward pass."""
    return soft_surrogate_gradients(batch, params, ctx, sigma_q)[0]


def make_ctx(spec, snr_db=10.0, error_seed=3, channel_seed=4):
    keys = keygen(TOY_LWE, 101, 102)
    return TrainContext(spec=spec, keys=keys,
                        qcfg=QuantizerConfig(TOY_LWE.p, 16),
                        cons=build_constellation(TOY_LWE.p, 1.0),
                        snr_db=snr_db, sigma_l=5.0, error_seed=error_seed,
                        channel_seed=channel_seed)


def toy_batch(n=4, seed=5):
    images = synthesize_dataset(DatasetSpec("blob", n, 4, 4, 1), seed)
    return np.stack([im.reshape(-1) for im in images])


MLP_SPEC = CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=16,
                     latent_scale=float(TOY_LWE.p), hidden_sizes=(12,))


def test_gradient_skip_contract(zero_error_rows):
    # with zero errors and a noiseless channel the full-chain gradients must
    # coincide with the surrogate in which the crypto segment is the identity
    ctx = make_ctx(MLP_SPEC, snr_db=math.inf)
    state = init_train_state(MLP_SPEC, seed=7)
    batch = toy_batch()
    loss_a, grads_a = chain_gradients(batch, state, ctx)
    loss_b, grads_b = surrogate_gradients(batch, state, ctx)
    assert np.isclose(loss_a, loss_b, rtol=1e-12)
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        assert np.allclose(grads_a[name], grads_b[name], rtol=1e-10,
                           atol=1e-12), name


def test_soft_surrogate_gradients_match_finite_differences():
    ctx = make_ctx(MLP_SPEC)
    params = init_params(MLP_SPEC, stream(8))
    batch = toy_batch(2)
    sigma_q = 0.02  # soft enough that the quantizer passes real gradient
    _, grads = soft_surrogate_gradients(batch, params, ctx, sigma_q)
    h = 1e-4
    rng = stream(9)
    for name in sorted(params):
        flat = params[name].ravel()
        for _ in range(3):
            i = int(rng.integers(0, flat.size))
            orig = flat[i]
            flat[i] = orig + h
            up = soft_surrogate_loss(batch, params, ctx, sigma_q)
            flat[i] = orig - h
            down = soft_surrogate_loss(batch, params, ctx, sigma_q)
            flat[i] = orig
            num = (up - down) / (2 * h)
            got = grads[name].ravel()[i]
            assert np.isclose(got, num, rtol=1e-3, atol=1e-8), (name, i)


def test_zero_learning_rate_freezes_parameters():
    ctx = make_ctx(MLP_SPEC)
    state = init_train_state(MLP_SPEC, seed=7, learning_rate=0.0)
    before = {k: v.copy() for k, v in state.params.items()}
    batch = toy_batch()
    for _ in range(3):
        train_step_drawn(batch, state, ctx)
    for name in before:
        assert np.array_equal(state.params[name], before[name])
    assert state.step == 3


def test_sigma_q_annealing_advances_with_steps(monkeypatch):
    # a step's sigma_q depends on its step alone: 5 more per 2000 steps
    seen = []

    def gradients(batch, params, ctx, sigma_q, *rest):
        seen.append(sigma_q)
        return _gradients(batch, params, ctx, sigma_q, *rest)
    monkeypatch.setattr(training, "_gradients", gradients)
    ctx = make_ctx(MLP_SPEC)
    state = init_train_state(MLP_SPEC, seed=7)
    batch = toy_batch(2)
    for step in (0, 1999, 2000, 2001, 3999, 4000):
        train_step_drawn(batch, replace(state, step=step), ctx)
    assert seen == [5.0, 5.0, 10.0, 10.0, 10.0, 15.0]


def test_nonfinite_loss_aborts_with_diagnostic():
    ctx = make_ctx(MLP_SPEC)
    state = init_train_state(MLP_SPEC, seed=7)
    state.params["dec.b1"][:] = np.nan
    with pytest.raises(RuntimeError, match="non-finite loss at step"):
        train_step_drawn(toy_batch(), state, ctx)
    # the failed step leaves the state as it was
    assert (state.step, state.messages_sent) == (0, 0) and not state.moments.any()


def test_identity_codec_has_nothing_to_train():
    spec = CodecSpec(kind="identity", input_shape=(4, 4, 1), k=16, latent_scale=1.0)
    with pytest.raises(ValueError, match="the identity codec has no parameters to train"):
        init_train_state(spec, seed=7)


@pytest.mark.parametrize("over, message", [
    ({"qcfg": QuantizerConfig(4093, 16)},
     "quantizer modulus 4093 is not the key modulus 251"),
    ({"cons": build_constellation(256, 1.0)},
     "constellation modulus 256 is not the key modulus 251"),
])
def test_train_context_rejects_another_modulus(over, message):
    with pytest.raises(ValueError, match=message):
        replace(make_ctx(MLP_SPEC), **over)


def test_training_step_decrypts_once(monkeypatch):
    # training reads only the noisy plaintext: no exact decryption beside it
    calls = []

    def counting(*args):
        calls.append(args)
        return decrypt(*args)
    decrypt = training.decrypt
    monkeypatch.setattr(training, "decrypt", counting)
    train_step_drawn(toy_batch(), init_train_state(MLP_SPEC, seed=7), make_ctx(MLP_SPEC))
    assert len(calls) == 1


def test_sweep_and_training_share_one_chain_function(monkeypatch):
    # one spy on the chain sees the sweep's chunks, a training step's batch
    # and an evaluation's held-out set, each keyed by its message indices
    ctx = make_ctx(MLP_SPEC)
    state = init_train_state(MLP_SPEC, seed=7)
    calls = []
    send = pipeline.transmit_latent

    def spy(z_bar, draws, *rest):
        calls.append(draws.indices.tolist())
        return send(z_bar, draws, *rest)
    monkeypatch.setattr(pipeline, "transmit_latent", spy)
    images = list(toy_batch(3).reshape(3, 4, 4, 1))
    pipeline.sweep(images, MLP_SPEC, state.params, ctx.keys, ctx.qcfg, ctx.cons,
                   [5.0, 15.0], ctx.sigma_l, ctx.error_seed, ctx.channel_seed)
    train_step_drawn(toy_batch(), state, ctx)
    evaluate_drawn(toy_batch(2), state.params, ctx)
    assert calls == [[0, 3], [1, 4], [2, 5], [0, 1, 2, 3], [0, 1]]


def test_train_step_advances_its_state_in_place():
    ctx = make_ctx(MLP_SPEC)
    state = init_train_state(MLP_SPEC, seed=7)
    before = {k: v.copy() for k, v in state.params.items()}
    loss = train_step_drawn(toy_batch(), state, ctx)
    assert math.isfinite(loss)
    assert (state.step, state.messages_sent) == (1, 4)
    assert state.moments.shape == (2, sum(a.size for a in before.values()))
    assert state.moments.any(axis=1).all()  # both moments moved
    assert all(not np.array_equal(state.params[k], before[k]) for k in before)


def test_train_step_leaves_parameters_as_views_of_one_new_vector():
    # one float64 vector in sorted name order; a copy taken before the step
    # keeps its bits, because the step writes a new vector
    ctx, state = make_ctx(MLP_SPEC), init_train_state(MLP_SPEC, seed=7)
    copy = replace(state)
    before = {k: v.copy() for k, v in state.params.items()}
    grads = state.grads.vector
    for _ in range(2):
        train_step_drawn(toy_batch(), state, ctx)
        vector = state.params.vector
        assert list(state.params) == sorted(before) and vector.dtype == np.float64
        offset = 0
        for name, a in state.params.items():
            assert a.base is vector and a.shape == before[name].shape
            assert a.ctypes.data == vector.ctypes.data + 8 * offset
            offset += a.size
        assert offset == vector.size
        assert state.grads.vector is grads  # gradients are written in place
    assert copy.params.vector is not vector
    assert all(np.array_equal(copy.params[k].view(np.int64), before[k].view(np.int64))
               for k in before)


def test_a_deep_copy_of_the_state_trains_like_the_state():
    # the copy's parameter and gradient views are views of its own vectors
    ctx, state = make_ctx(MLP_SPEC), init_train_state(MLP_SPEC, seed=7)
    train_step_drawn(toy_batch(), state, ctx)
    copied = deepcopy(state)
    draws = next_draws(toy_batch(), state, ctx)
    assert train_step(toy_batch(), copied, ctx, draws) == train_step(toy_batch(), state, ctx,
                                                                     draws)
    assert np.array_equal(copied.params.vector.view(np.int64),
                          state.params.vector.view(np.int64))
    assert np.array_equal(copied.moments, state.moments)


def test_linear_codec_learns_on_clean_chain(zero_error_rows):
    # noiseless, error-free chain: 2000 steps must beat the initial loss of
    # the one-layer codec (an mlp with no hidden layer)
    spec = CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=16,
                     latent_scale=float(TOY_LWE.p))
    ctx = make_ctx(spec, snr_db=math.inf)
    images = synthesize_dataset(DatasetSpec("blob", 32, 4, 4, 1), 6)
    data = np.stack([im.reshape(-1) for im in images])
    state = init_train_state(spec, seed=11, learning_rate=1e-3)
    loss0 = evaluate_drawn(data, state.params, ctx)
    rng = stream(12)
    for _ in range(2000):
        batch = data[rng.integers(0, len(data), size=8)]
        train_step_drawn(batch, state, ctx)
    loss1 = evaluate_drawn(data, state.params, ctx)
    assert loss1 < loss0


def test_forward_path_matches_evaluation_pipeline():
    # same seeds, same message indices: training forward == evaluation chain
    ctx = make_ctx(MLP_SPEC)
    state = init_train_state(MLP_SPEC, seed=7)
    batch = toy_batch(3)
    loss_train, _ = chain_gradients(batch, state, ctx)
    assert state.messages_sent == 0  # evaluate sends messages 0 .. 2
    loss_eval = evaluate_drawn(batch, state.params, ctx)
    assert np.isclose(loss_train, loss_eval, rtol=1e-12)


def test_converged_loss_beats_mean_predictor_baseline():
    # 10-seed mean of the converged validation MSE must undercut the
    # variance left by predicting the training-set mean image
    spec = CodecSpec(kind="mlp", input_shape=(8, 8, 1), k=16,
                     latent_scale=float(TOY_LWE.p), hidden_sizes=(32,))
    keys = keygen(TOY_LWE, 101, 102)
    cons = build_constellation(TOY_LWE.p, 1.0)
    qcfg = QuantizerConfig(TOY_LWE.p, 16)
    images = synthesize_dataset(DatasetSpec("blob", 240, 8, 8, 1), 5)
    train_x = np.stack([im.reshape(-1) for im in images[:200]])
    val_x = np.stack([im.reshape(-1) for im in images[200:]])
    baseline = float(np.mean((val_x - train_x.mean(axis=0)) ** 2))
    ctx = TrainContext(spec=spec, keys=keys, qcfg=qcfg, cons=cons,
                       snr_db=10.0, sigma_l=5.0, error_seed=3, channel_seed=4)
    eval_ctx = TrainContext(spec=spec, keys=keys, qcfg=qcfg, cons=cons,
                            snr_db=10.0, sigma_l=5.0, error_seed=31,
                            channel_seed=41)
    finals = []
    for seed in range(10):
        state = init_train_state(spec, seed=3000 + seed, learning_rate=3e-4)
        shuffle = stream(4000 + seed)
        while state.step < 1200:
            order = shuffle.permutation(len(train_x))
            for s in range(0, len(order), 10):
                train_step_drawn(train_x[order[s:s + 10]], state, ctx)
                if state.step >= 1200:
                    break
        finals.append(evaluate_drawn(val_x, state.params, eval_ctx))
    assert np.mean(finals) < baseline


@pytest.mark.parametrize("error_seed, channel_seed", [
    (3, 41), (31, 4), (4, 41), (31, 3), (3 + 2 ** 64, 41), (31, 4 - 2 ** 64)])
def test_train_codec_rejects_training_seeds_in_eval_ctx(error_seed, channel_seed):
    # validation must not draw a training message's error or channel stream
    images = synthesize_dataset(DatasetSpec("blob", 24, 4, 4, 1), 13)
    eval_ctx = make_ctx(MLP_SPEC, error_seed=error_seed, channel_seed=channel_seed)
    state = init_train_state(MLP_SPEC, seed=14)
    with pytest.raises(ValueError, match=r"eval_ctx's error and channel seeds must differ"):
        train_codec(images[:16], images[16:], make_ctx(MLP_SPEC), state,
                    max_steps=10, batch_size=8, shuffle_seed=15, eval_ctx=eval_ctx)
    assert state.step == 0


@pytest.mark.parametrize("shuffle_seed", [3, 4, 31, 41 - 2**64],
                         ids=["error", "channel", "eval_error", "eval_channel"])
def test_train_codec_rejects_a_shuffle_seed_of_an_error_or_channel_stream(shuffle_seed):
    # stream(s) is message 0's error or channel stream under seed s
    images = synthesize_dataset(DatasetSpec("blob", 24, 4, 4, 1), 13)
    state = init_train_state(MLP_SPEC, seed=14)
    with pytest.raises(ValueError, match="shuffle_seed equals an error or channel seed"):
        train_codec(images[:16], images[16:], make_ctx(MLP_SPEC), state, max_steps=10,
                    batch_size=8, shuffle_seed=shuffle_seed,
                    eval_ctx=make_ctx(MLP_SPEC, error_seed=31, channel_seed=41))
    assert state.step == 0


@pytest.mark.parametrize("init_seed", [3, 4 + 2**64, 31, 41, 15],
                         ids=["error", "channel", "eval_error", "eval_channel", "shuffle"])
def test_train_codec_rejects_an_init_seed_of_a_drawn_stream(init_seed):
    # stream(s) draws the initial parameters, the shuffle, and message 0's
    # error or channel stream under seed s
    images = synthesize_dataset(DatasetSpec("blob", 24, 4, 4, 1), 13)
    state = init_train_state(MLP_SPEC, seed=init_seed)
    assert state.init_seed == init_seed
    with pytest.raises(ValueError, match="init_seed equals an error, channel or shuffle seed"):
        train_codec(images[:16], images[16:], make_ctx(MLP_SPEC), state, max_steps=10,
                    batch_size=8, shuffle_seed=15,
                    eval_ctx=make_ctx(MLP_SPEC, error_seed=31, channel_seed=41))
    assert state.step == 0
    # a state whose seed is not recorded is not checked
    train_codec(images[:16], images[16:], make_ctx(MLP_SPEC), replace(state, init_seed=None),
                max_steps=2, batch_size=8, shuffle_seed=15,
                eval_ctx=make_ctx(MLP_SPEC, error_seed=31, channel_seed=41))


def no_draws(*args, **kwargs):
    raise AssertionError("drew messages before checking eval_ctx")


@pytest.mark.parametrize("override, named", [
    (dict(spec=replace(MLP_SPEC, hidden_sizes=(8,))), "spec"),
    (dict(snr_db=0.0), "snr_db"),
    (dict(sigma_l=1.0), "sigma_l"),
    (dict(keys=keygen(replace(TOY_LWE, n1=8), 101, 102)), "key params"),
    (dict(keys=keygen(TOY_LWE, 7, 102)), "key seeds"),
    (dict(keys=keygen(TOY_LWE, 101, 7)), "key seeds"),
    (dict(qcfg=QuantizerConfig(TOY_LWE.p, 8)), "quantizer"),
    (dict(cons=build_constellation(TOY_LWE.p, 2.0)), "constellation"),
    (dict(keys=keygen(replace(TOY_LWE, p=257), 101, 102), qcfg=QuantizerConfig(257, 16),
          cons=build_constellation(257, 1.0)), "key params, quantizer, constellation"),
], ids=["spec", "snr_db", "sigma_l", "key_params", "key_seed", "lattice_seed",
        "n_levels", "avg_power", "modulus"])
def test_train_codec_rejects_eval_ctx_on_another_chain(override, named, monkeypatch):
    # validation scores the chain being trained: eval_ctx may change its seeds alone
    eval_ctx = replace(make_ctx(MLP_SPEC), error_seed=31, channel_seed=41, **override)
    images = synthesize_dataset(DatasetSpec("blob", 24, 4, 4, 1), 13)
    state = init_train_state(MLP_SPEC, seed=14)
    monkeypatch.setattr(pipeline, "draw_messages", no_draws)
    with pytest.raises(ValueError, match=f"chain differs from ctx's in {named}$"):
        train_codec(images[:16], images[16:], make_ctx(MLP_SPEC), state,
                    max_steps=10, batch_size=8, shuffle_seed=15, eval_ctx=eval_ctx)
    assert state.step == 0


def test_train_codec_early_stopping():
    ctx = make_ctx(MLP_SPEC)
    eval_ctx = make_ctx(MLP_SPEC, error_seed=31, channel_seed=41)
    images = synthesize_dataset(DatasetSpec("blob", 24, 4, 4, 1), 13)
    state = init_train_state(MLP_SPEC, seed=14, learning_rate=0.0)
    result = train_codec(images[:16], images[16:], ctx, state,
                         max_steps=10_000, batch_size=8, shuffle_seed=15,
                         eval_ctx=eval_ctx)
    # zero learning rate never improves, so patience must trigger
    assert result.stopped_early
    assert result.state.step < 10_000
    # the first epoch sets the best loss, then PATIENCE stagnant ones
    assert len(result.val_losses) == PATIENCE + 1


def test_train_step_rejects_draws_of_other_messages():
    # a step must send the next messages on their own draws: draws of any
    # other messages, a replay of the last step's among them, would give two
    # messages one error triple and one channel noise
    ctx, state, batch = make_ctx(MLP_SPEC), init_train_state(MLP_SPEC, seed=7), toy_batch()
    first = next_draws(batch, state, ctx)
    train_step(batch, state, ctx, first)
    params = {k: v.copy() for k, v in state.params.items()}
    moments = state.moments.copy()
    for bad in (first, ctx.draw(np.arange(5, 9)), ctx.draw([5, 4, 6, 7]),
                ctx.draw(np.arange(4, 7)), next_draws(batch, state, ctx)[:3]):
        with pytest.raises(ValueError, match=r"are not those of messages 4 \.\. 7"):
            train_step(batch, state, ctx, bad)
        assert (state.step, state.messages_sent) == (1, 4)
        assert all(np.array_equal(state.params[k], params[k]) for k in params)
        assert np.array_equal(state.moments, moments)


@pytest.mark.parametrize("indices", [[1, 2, 3], [0, 1], [0, 1, 2, 3], [2, 1, 0]])
def test_evaluate_rejects_draws_of_other_messages(indices):
    ctx, state = make_ctx(MLP_SPEC), init_train_state(MLP_SPEC, seed=7)
    with pytest.raises(ValueError, match=r"are not those of messages 0 \.\. 2"):
        evaluate(toy_batch(3), state.params, ctx, ctx.draw(indices))


def test_chain_calls_on_drawn_blocks_equal_their_own_draws(monkeypatch):
    # blocks of two 4-image batches, 4 steps an epoch, 6 validation images:
    # a step in the second block and the second epoch's evaluation give the
    # bits of their messages drawn on their own
    monkeypatch.setattr(training, "DRAW_BLOCK_ENTRIES", 2 * 4 * MLP_SPEC.k)
    ctx = make_ctx(MLP_SPEC)
    eval_ctx = make_ctx(MLP_SPEC, error_seed=31, channel_seed=41)
    images = synthesize_dataset(DatasetSpec("blob", 22, 4, 4, 1), 13)
    calls = []
    send = pipeline.transmit_latent

    def spy(z_bar, draws, *rest):
        calls.append((z_bar, draws, send(z_bar, draws, *rest)))
        return calls[-1][2]
    monkeypatch.setattr(pipeline, "transmit_latent", spy)
    state = init_train_state(MLP_SPEC, seed=14)
    train_codec(images[:16], images[16:], ctx, state, max_steps=8, batch_size=4,
                shuffle_seed=15, eval_ctx=eval_ctx)
    steps = [list(range(m, m + 4)) for m in range(0, 32, 4)]
    assert [draws.indices.tolist() for _, draws, _ in calls] == [
        *steps[:4], list(range(6)), *steps[4:], list(range(6))]
    monkeypatch.undo()
    for call, on in ((calls[2], ctx), (calls[-1], eval_ctx)):
        z_bar, draws, (ct, c_hat) = call
        own_ct, own_c_hat = pipeline.transmit_latent(
            z_bar, on.draw(draws.indices), on.keys, on.cons, on.sigma_l)
        for got, own in ((ct.c, own_ct.c), (ct.d, own_ct.d), (c_hat, own_c_hat)):
            assert np.array_equal(got, own)
