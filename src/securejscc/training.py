"""Training a codec through the full encrypted transmission chain.

The forward pass runs the real chain: hard quantization, encryption,
modulation, channel noise, soft demodulation, noisy decryption and soft
dequantization. None of that middle segment is differentiable, so the
backward pass treats everything between the quantized latent and the
dequantized estimate as the identity and substitutes the soft-quantization
Jacobian for the hard quantizer. The decoder therefore learns to undo the
compound crypto-plus-channel noise while the encoder is steered by the
differentiable surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec, pipeline
from .lwe import KeyPair, decrypt
from .modem import Constellation, Db
from .quantizer import (QuantizerConfig, anneal_sigma_q, hard_quantize,
                        soft_dequantize, soft_quantize_jacobian)
from .rng import seed_word, stream

# train_codec's stopping rule: epochs without a better validation loss
# before training stops, and before each learning-rate decay by LR_DECAY
PATIENCE = 10
DECAY_PATIENCE = 5
LR_DECAY = 0.8
# train_codec draws training messages ahead in blocks of whole batches and at
# most this many latent entries (messages x k)
DRAW_BLOCK_ENTRIES = 1 << 16


@dataclass
class TrainContext:
    """Everything a training step needs besides the mutable state."""

    spec: codec.CodecSpec
    keys: KeyPair
    qcfg: QuantizerConfig
    cons: Constellation
    snr_db: Db
    sigma_l: float
    error_seed: int
    channel_seed: int

    def __post_init__(self):
        self.keys.params.check_moduli(quantizer=self.qcfg.p,
                                      constellation=len(self.cons.points))

    def draw(self, message_indices) -> pipeline.MessageDraws:
        """The draws of messages ``message_indices`` on this chain."""
        return pipeline.draw_messages(self.keys, self.cons, self.error_seed,
                                      self.channel_seed, message_indices, self.snr_db)


@dataclass
class TrainState:
    params: codec.FlatArrays  # views of the parameter vector
    moments: np.ndarray  # Adam's (2, n) moments over the parameter vector
    grads: codec.FlatArrays  # views of the gradient vector, rewritten each step
    step: int = 0
    learning_rate: float = codec.ADAM_LR
    messages_sent: int = 0
    init_seed: int | None = None  # the seed of the initial parameters' stream


def init_train_state(spec: codec.CodecSpec, seed: int,
                     learning_rate: float = codec.ADAM_LR) -> TrainState:
    if not codec.param_shapes(spec):
        raise ValueError(f"the {spec.kind} codec has no parameters to train")
    params = codec.init_params(spec, stream(seed))
    return TrainState(params=params, moments=np.zeros((2, params.vector.size)),
                      grads=codec.FlatArrays(params.shapes), learning_rate=learning_rate,
                      init_seed=seed)


def _through_chain(ctx: TrainContext, draws: pipeline.MessageDraws):
    """Latent map of the real chain: quantize, transmit on ``draws``, dequantize."""
    def latent_map(z: np.ndarray) -> np.ndarray:
        ct, c_hat = pipeline.transmit_latent(hard_quantize(z, ctx.qcfg), draws,
                                             ctx.keys, ctx.cons, ctx.sigma_l)
        return soft_dequantize(decrypt(c_hat, ct.d, ctx.keys), ctx.qcfg)
    return latent_map


def _check_messages(draws: pipeline.MessageDraws, first: int, n: int) -> None:
    # a message's error triple and channel noise serve that message once
    if draws.indices.tolist() != list(range(first, first + n)):
        raise ValueError(f"draws of messages {draws.indices.tolist()} are not "
                         f"those of messages {first} .. {first + n - 1}")


def _forward(batch: np.ndarray, params: dict, ctx: TrainContext, latent_map):
    """Encode, map the latents, decode; the loss and the backward inputs."""
    x = np.asarray(batch, dtype=np.float64)
    z, enc_cache = codec.encode(x, ctx.spec, params)
    x_hat, dec_cache = codec.decode(latent_map(z), ctx.spec, params)
    loss, grad_x = codec.mse_loss(x, x_hat)
    return loss, (grad_x, z, enc_cache, dec_cache)


def _gradients(batch: np.ndarray, params: dict, ctx: TrainContext, sigma_q: float,
               latent_map, grads: dict) -> float:
    """The loss; the parameter gradients are written into ``grads``' arrays,
    and the latent map is skipped backward."""
    loss, (grad_x, z, enc_cache, dec_cache) = _forward(batch, params, ctx,
                                                       latent_map)
    grad_zhat = codec.decode_backward(grad_x, ctx.spec, params, dec_cache, grads)
    # gradient skip: the whole quantized-latent -> dequantized segment is
    # treated as identity, then the soft-quantizer Jacobian maps back to z
    grad_z = grad_zhat * soft_quantize_jacobian(z.ravel(), ctx.qcfg,
                                                sigma_q).reshape(z.shape)
    codec.encode_backward(grad_z, params, enc_cache, grads)
    return loss


def train_step(batch: np.ndarray, state: TrainState, ctx: TrainContext,
               draws: pipeline.MessageDraws) -> float:
    """One optimizer update of ``state`` in place, with the soft quantizer's
    sharpness at ``state.step``: its parameters, optimizer moments, step and
    message counters advance. Returns the batch loss. The batch travels as
    messages ``state.messages_sent`` onward on their ``draws``; draws of
    other messages, such as the last step's replayed, raise ValueError."""
    _check_messages(draws, state.messages_sent, batch.shape[0])
    sigma_q = anneal_sigma_q(state.step)
    loss = _gradients(batch, state.params, ctx, sigma_q, _through_chain(ctx, draws),
                      state.grads)
    if not math.isfinite(loss):
        raise RuntimeError(
            f"non-finite loss at step {state.step} "
            f"(sigma_q={sigma_q}, snr_db={ctx.snr_db})")
    state.step += 1
    state.params = codec.FlatArrays(state.params.shapes, codec.adam_step(
        state.params.vector, state.grads.vector, state.moments, state.step,
        lr=state.learning_rate))
    state.messages_sent += batch.shape[0]
    return loss


def evaluate(images: np.ndarray, params: dict, ctx: TrainContext,
             draws: pipeline.MessageDraws) -> float:
    """Mean loss of the evaluation chain (the training forward pass), sent
    as messages 0 .. len(images)-1 on their ``draws`` (others raise)."""
    _check_messages(draws, 0, len(images))
    return _forward(images, params, ctx, _through_chain(ctx, draws))[0]


def _chain(ctx: TrainContext) -> dict:
    """The chain ``ctx`` runs, by value: everything but its two seeds."""
    keys, qcfg, cons = ctx.keys, ctx.qcfg, ctx.cons
    return {"spec": ctx.spec, "snr_db": ctx.snr_db, "sigma_l": ctx.sigma_l,
            "key params": keys.params, "key seeds": (keys.key_seed, keys.lattice_seed),
            "quantizer": (qcfg.p, qcfg.n_levels),
            "constellation": (len(cons.points), cons.avg_power)}


@dataclass
class TrainResult:
    state: TrainState
    train_losses: list[float]
    val_losses: list[float]
    stopped_early: bool


def train_codec(train_images: list[np.ndarray], val_images: list[np.ndarray],
                ctx: TrainContext, state: TrainState, *, max_steps: int,
                batch_size: int, shuffle_seed: int,
                eval_ctx: TrainContext) -> TrainResult:
    """Epoch loop with early stopping and stagnation-triggered LR decay.

    ``state`` is trained in place. An epoch is one pass over the training
    set. Validation runs after each epoch on ``eval_ctx``: the same chain by
    value. Its error and channel seeds, ``ctx``'s, ``shuffle_seed`` and
    ``state.init_seed`` (if recorded) must differ mod 2**64, so that no two
    draw the same streams; any such fault raises ValueError. Training stops
    after ``PATIENCE`` epochs without improvement and the learning rate
    shrinks by ``LR_DECAY`` after every ``DECAY_PATIENCE`` stagnant epochs.
    Validation's messages are drawn once per run, training's ahead in blocks
    (see ``DRAW_BLOCK_ENTRIES``).
    """
    chain, eval_chain = _chain(ctx), _chain(eval_ctx)
    if differ := [name for name in chain if chain[name] != eval_chain[name]]:
        raise ValueError(f"eval_ctx's chain differs from ctx's in {', '.join(differ)}")
    words = [seed_word(s) for c in (ctx, eval_ctx) for s in (c.error_seed, c.channel_seed)]
    if set(words[:2]) & set(words[2:]):
        raise ValueError("eval_ctx's error and channel seeds must differ from "
                         "ctx's (mod 2**64)")
    if seed_word(shuffle_seed) in words:
        raise ValueError("shuffle_seed equals an error or channel seed (mod 2**64)")
    words.append(seed_word(shuffle_seed))
    if state.init_seed is not None and seed_word(state.init_seed) in words:
        raise ValueError("init_seed equals an error, channel or shuffle seed (mod 2**64)")
    x_train = np.stack([im.reshape(-1) for im in train_images])
    x_val = np.stack([im.reshape(-1) for im in val_images])
    shuffle_rng = stream(shuffle_seed)
    val_draws = eval_ctx.draw(np.arange(len(x_val)))
    block = max(1, DRAW_BLOCK_ENTRIES // (batch_size * ctx.keys.params.k)) * batch_size
    base = end = state.messages_sent  # the drawn block: messages base .. end-1

    best_val = math.inf
    stagnant = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    stopped_early = False
    while state.step < max_steps:
        order = shuffle_rng.permutation(len(x_train))
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            if state.step >= max_steps:
                break
            batch = x_train[order[start:start + batch_size]]
            sent = state.messages_sent
            if sent + len(batch) > end:  # the next block, for at most the steps left
                base, end = sent, sent + min(block, (max_steps - state.step) * batch_size)
                draws = ctx.draw(np.arange(base, end))
            epoch_losses.append(train_step(batch, state, ctx,
                                           draws[sent - base:sent - base + len(batch)]))
        train_losses.append(float(np.mean(epoch_losses)))
        val = evaluate(x_val, state.params, eval_ctx, val_draws)
        val_losses.append(val)
        if val < best_val - 1e-12:
            best_val = val
            stagnant = 0
        else:
            stagnant += 1
            if stagnant % DECAY_PATIENCE == 0:
                state.learning_rate *= LR_DECAY
            if stagnant >= PATIENCE:
                stopped_early = True
                break
    return TrainResult(state=state, train_losses=train_losses,
                       val_losses=val_losses, stopped_early=stopped_early)
