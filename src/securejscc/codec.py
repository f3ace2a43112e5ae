"""Source codecs and their hand-rolled gradients.

Two codec kinds share one forward interface. ``identity`` rescales pixels
into the modulus range and back. ``mlp`` is a dense stack of any depth
(tanh between layers; no hidden layer gives the one-layer codec) whose
output squash keeps the encoder's values inside ``[0, latent_scale)``.
Only the ``mlp`` has parameters, so only it has a backward pass and trains.

Gradients are written out explicitly rather than taken from an autodiff
framework: the training loop needs to route them around a
non-differentiable segment, and the networks are small enough that the
closed forms stay readable and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CODEC_KINDS = ("identity", "mlp")

ADAM_LR = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class CodecSpec:
    kind: str
    input_shape: tuple[int, int, int]  # (H, W, C)
    k: int
    latent_scale: float
    hidden_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in CODEC_KINDS:
            raise ValueError(f"unknown codec kind {self.kind!r}")
        if min((*self.input_shape, self.k, *self.hidden_sizes)) < 1:
            raise ValueError(f"codec sizes must be positive: input_shape="
                             f"{self.input_shape}, k={self.k}, "
                             f"hidden_sizes={self.hidden_sizes}")
        if self.kind == "identity" and (self.k, self.hidden_sizes) != (self.n_pixels, ()):
            raise ValueError(f"identity codec needs k == H*W*C ({self.n_pixels}) and no "
                             f"hidden_sizes, got {self.k} and {self.hidden_sizes}")
        if not self.latent_scale > 0:
            raise ValueError(f"latent_scale must be positive, got {self.latent_scale}")

    @property
    def n_pixels(self) -> int:
        h, w, c = self.input_shape
        return h * w * c

    @property
    def rho(self) -> float:  # bandwidth ratio: latent symbols per pixel value
        return self.k / self.n_pixels


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # -|u| is exactly -u or u: each side is its overflow-free form, bit for bit
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def dense_shapes(sizes: list[int], prefix: str) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the weights and biases of a dense stack of ``sizes``."""
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes[f"{prefix}.W{i}"], shapes[f"{prefix}.b{i}"] = (n_in, n_out), (n_out,)
    return shapes


class FlatArrays(dict):
    """Named arrays, of ``shapes``, that view one float64 vector, ``vector`` (zeros
    if not given), in sorted name order: writing either writes the other."""

    def __init__(self, shapes: dict[str, tuple], vector: np.ndarray | None = None):
        if vector is None:
            vector = np.zeros(sum(map(math.prod, shapes.values())))
        self.shapes, self.vector = shapes, vector
        end = 0
        for name in sorted(shapes):
            shape = shapes[name]
            start, end = end, end + math.prod(shape)
            self[name] = vector[start:end].reshape(shape)

    def __reduce__(self):  # a deep copy or unpickled copy views its own vector
        return type(self), (self.shapes, self.vector)


def init_arrays(shapes: dict[str, tuple], rng: np.random.Generator) -> FlatArrays:
    """Zero biases and N(0, 1/fan-in) weights, drawn in the order of ``shapes``."""
    params = FlatArrays(shapes)
    for name, shape in shapes.items():
        if len(shape) == 2:
            params[name][...] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape)
    return params


def param_shapes(spec: CodecSpec) -> dict[str, tuple[int, ...]]:
    """The names and shapes of a codec's parameters, encoder first (none for identity)."""
    if spec.kind == "identity":
        return {}
    return {**dense_shapes([spec.n_pixels, *spec.hidden_sizes, spec.k], "enc"),
            **dense_shapes([spec.k, *reversed(spec.hidden_sizes), spec.n_pixels], "dec")}


def init_params(spec: CodecSpec, rng: np.random.Generator) -> FlatArrays:
    """Fresh parameters for a codec spec (none for identity)."""
    return init_arrays(param_shapes(spec), rng)


def dense_forward(params: dict, prefix: str, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Dense stack with tanh between layers; final layer is affine. Its depth
    is the number of ``{prefix}.W{i}`` weight matrices in ``params``; the
    cache holds each layer's input."""
    n_layers = sum(name.startswith(prefix + ".W") for name in params)
    cache, a = [], x
    for i in range(n_layers):
        if i:
            a = np.tanh(a)
        cache.append(a)
        a = a @ params[f"{prefix}.W{i}"] + params[f"{prefix}.b{i}"]
    return a, cache


def dense_backward(params: dict, prefix: str, cache: list, grad_out: np.ndarray,
                   grads: dict) -> np.ndarray:
    """Weight and bias gradients, written into ``grads``' arrays; returns the
    gradient at the first layer's output (the input's is ``that @ W0.T``)."""
    g = grad_out
    for i in reversed(range(len(cache))):
        w, b = f"{prefix}.W{i}", f"{prefix}.b{i}"
        np.matmul(cache[i].T, g, out=grads[w])
        g.sum(axis=0, out=grads[b])
        if i:  # back through this layer and the tanh that made its input
            g = (g @ params[w].T) * (1.0 - cache[i] ** 2)
    return g


def _squashed_forward(params: dict, prefix: str, x: np.ndarray,
                      scale: float) -> tuple[np.ndarray, tuple]:
    """``scale * sigmoid`` of the dense stack: the encoder's and decoder's."""
    u, dense = dense_forward(params, prefix, x)
    s = _sigmoid(u)
    return scale * s, (prefix, scale, s, dense)


def _squashed_backward(params: dict, cache: tuple, grad_out: np.ndarray, grads):
    prefix, scale, s, dense = cache
    return dense_backward(params, prefix, dense, grad_out * scale * s * (1.0 - s), grads)


def encode(x: np.ndarray, spec: CodecSpec, params: dict) -> tuple[np.ndarray, tuple]:
    """Map a batch of flattened images (B, H*W*C) to latents (B, k).

    Returns the latent batch and a cache consumed by :func:`encode_backward`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.n_pixels:
        raise ValueError(f"expected (B, {spec.n_pixels}) pixel rows, got shape {x.shape}")
    if spec.kind == "identity":
        return x * spec.latent_scale, ()
    return _squashed_forward(params, "enc", x / 255.0, spec.latent_scale)


def encode_backward(grad_z: np.ndarray, params: dict, cache: tuple, grads: dict) -> None:
    _squashed_backward(params, cache, grad_z, grads)


def decode(z_hat: np.ndarray, spec: CodecSpec, params: dict) -> tuple[np.ndarray, tuple]:
    """Map latents (B, k) back to flattened images clamped to [0, 255]."""
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if z_hat.ndim != 2 or z_hat.shape[1] != spec.k:
        raise ValueError(f"expected (B, {spec.k}) latent rows, got shape {z_hat.shape}")
    if spec.kind == "identity":
        return np.clip(z_hat / spec.latent_scale, 0.0, 255.0), ()
    return _squashed_forward(params, "dec", z_hat / spec.latent_scale, 255.0)


def decode_backward(grad_x: np.ndarray, spec: CodecSpec, params: dict, cache: tuple,
                    grads: dict) -> np.ndarray:
    """Decoder gradients, into ``grads``' arrays; returns its latent input's."""
    g = _squashed_backward(params, cache, grad_x, grads)
    return g @ params["dec.W0"].T / spec.latent_scale


def mse_loss(x: np.ndarray, x_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """The training objective: mean squared error over the batch, and its
    gradient in ``x_hat``."""
    diff = x_hat - x
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


# -- optimizer ---------------------------------------------------------------


def adam_step(vector: np.ndarray, grad: np.ndarray, moments: np.ndarray, step: int,
              lr: float = ADAM_LR) -> np.ndarray:
    """One Adam update (step is 1-based) of the parameter vector ``vector`` by
    its gradient ``grad``. ``moments`` is the (2, n) float64 buffer of the first
    and second moments, zeros before step 1, and is updated in place; the new
    parameters are a new vector, and ``vector`` is left as it was."""
    m, v = moments
    np.add(m * ADAM_BETA1, (1 - ADAM_BETA1) * grad, out=m)
    np.add(v * ADAM_BETA2, (1 - ADAM_BETA2) * grad * grad, out=v)
    m_hat = m / (1 - ADAM_BETA1 ** step)
    v_hat = v / (1 - ADAM_BETA2 ** step)
    return vector - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
