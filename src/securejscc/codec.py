"""Source codecs and their hand-rolled gradients.

Two codec kinds share one interface. ``identity`` rescales pixels into
the modulus range and back; ``mlp`` stacks up to three dense layers (tanh
between them) with a bounded output squash so the encoder always emits
values inside ``[0, latent_scale)``. An ``mlp`` with no hidden layer is the
one-layer codec.

Gradients are written out explicitly rather than taken from an autodiff
framework: the training loop needs to route them around a
non-differentiable segment, and the networks are small enough that the
closed forms stay readable and bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import metrics

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
        if self.kind == "mlp" and len(self.hidden_sizes) > 2:
            raise ValueError("mlp codec supports at most two hidden layers")
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
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def dense_shapes(sizes: list[int], prefix: str) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the weights and biases of a dense stack of ``sizes``."""
    shapes = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        shapes[f"{prefix}.W{i}"], shapes[f"{prefix}.b{i}"] = (n_in, n_out), (n_out,)
    return shapes


def dense_init(sizes: list[int], prefix: str, rng: np.random.Generator) -> dict:
    return {name: rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape) if len(shape) == 2
            else np.zeros(shape) for name, shape in dense_shapes(sizes, prefix).items()}


def _stacks(spec: CodecSpec) -> dict[str, list[int]]:
    """Layer widths of the encoder and decoder stacks (none for identity)."""
    if spec.kind == "identity":
        return {}
    return {"enc": [spec.n_pixels, *spec.hidden_sizes, spec.k],
            "dec": [spec.k, *reversed(spec.hidden_sizes), spec.n_pixels]}


def init_params(spec: CodecSpec, rng: np.random.Generator) -> dict:
    """Fresh parameter dictionary for a codec spec (empty for identity)."""
    return {name: value for prefix, sizes in _stacks(spec).items()
            for name, value in dense_init(sizes, prefix, rng).items()}


def param_shapes(spec: CodecSpec) -> dict[str, tuple[int, ...]]:
    """The names and shapes of :func:`init_params`, without allocating."""
    return {name: shape for prefix, sizes in _stacks(spec).items()
            for name, shape in dense_shapes(sizes, prefix).items()}


def dense_forward(params: dict, prefix: str, x: np.ndarray,
                  n_layers: int) -> tuple[np.ndarray, list]:
    """Dense stack with tanh between layers; final layer is affine."""
    cache = []
    a = x
    for i in range(n_layers):
        W, b = params[f"{prefix}.W{i}"], params[f"{prefix}.b{i}"]
        u = a @ W + b
        if i < n_layers - 1:
            out = np.tanh(u)
            cache.append((a, out))
            a = out
        else:
            cache.append((a, None))
            a = u
    return a, cache


def dense_backward(params: dict, prefix: str, cache: list,
                   grad_out: np.ndarray, n_layers: int) -> tuple[dict, np.ndarray]:
    grads = {}
    g = grad_out
    for i in reversed(range(n_layers)):
        a_in, act_out = cache[i]
        if act_out is not None:
            g = g * (1.0 - act_out ** 2)
        W = params[f"{prefix}.W{i}"]
        grads[f"{prefix}.W{i}"] = a_in.T @ g
        grads[f"{prefix}.b{i}"] = g.sum(axis=0)
        g = g @ W.T
    return grads, g


def _n_layers(spec: CodecSpec) -> int:
    return len(spec.hidden_sizes) + 1


def encode(x: np.ndarray, spec: CodecSpec, params: dict) -> tuple[np.ndarray, dict]:
    """Map a batch of flattened images (B, H*W*C) to latents (B, k).

    Returns the latent batch and a cache consumed by :func:`encode_backward`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != spec.n_pixels:
        raise ValueError(f"expected {spec.n_pixels} pixels per image, got {x.shape[1]}")
    if spec.kind == "identity":
        return x * spec.latent_scale, {}
    u, cache = dense_forward(params, "enc", x / 255.0, _n_layers(spec))
    s = _sigmoid(u)
    return spec.latent_scale * s, {"dense": cache, "squash": s}


def encode_backward(grad_z: np.ndarray, spec: CodecSpec, params: dict,
                    cache: dict) -> dict:
    if spec.kind == "identity":
        return {}
    s = cache["squash"]
    g = grad_z * spec.latent_scale * s * (1.0 - s)
    grads, _ = dense_backward(params, "enc", cache["dense"], g,
                              _n_layers(spec))
    return grads


def decode(z_hat: np.ndarray, spec: CodecSpec, params: dict) -> tuple[np.ndarray, dict]:
    """Map latents (B, k) back to flattened images clamped to [0, 255]."""
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if z_hat.ndim == 1:
        z_hat = z_hat[None, :]
    if z_hat.shape[1] != spec.k:
        raise ValueError(f"expected latent length {spec.k}, got {z_hat.shape[1]}")
    if spec.kind == "identity":
        raw = z_hat / spec.latent_scale
        return np.clip(raw, 0.0, 255.0), {"raw": raw}
    v, cache = dense_forward(params, "dec", z_hat / spec.latent_scale,
                             _n_layers(spec))
    s = _sigmoid(v)
    return 255.0 * s, {"dense": cache, "squash": s}


def decode_backward(grad_x: np.ndarray, spec: CodecSpec, params: dict,
                    cache: dict) -> tuple[dict, np.ndarray]:
    """Gradients of the decoder parameters and of its latent input."""
    if spec.kind == "identity":
        mask = (cache["raw"] > 0.0) & (cache["raw"] < 255.0)
        return {}, grad_x * mask / spec.latent_scale
    s = cache["squash"]
    g = grad_x * 255.0 * s * (1.0 - s)
    grads, g_in = dense_backward(params, "dec", cache["dense"], g,
                                 _n_layers(spec))
    return grads, g_in / spec.latent_scale


# -- losses ------------------------------------------------------------------


def mse_loss(x: np.ndarray, x_hat: np.ndarray) -> tuple[float, np.ndarray]:
    diff = x_hat - x
    loss = float(np.mean(diff ** 2))
    return loss, 2.0 * diff / diff.size


def ssim_loss(x: np.ndarray, x_hat: np.ndarray) -> tuple[float, np.ndarray]:
    """1 - SSIM over the batch (global statistics per image), with gradient.

    Each row of ``x`` is treated as one single-channel image. sigma is
    floored at a tiny epsilon so the derivative stays finite on constant
    reconstructions.
    """
    v1 = (metrics.V1_FACTOR * metrics.PEAK) ** 2
    v2 = (metrics.V2_FACTOR * metrics.PEAK) ** 2
    n = x.shape[1]
    grad = np.zeros_like(x_hat)
    total = 0.0
    for i in range(x.shape[0]):
        a, b = x[i], x_hat[i]
        mu_a, mu_b = a.mean(), b.mean()
        sd_a = max(a.std(), 1e-12)
        sd_b = max(b.std(), 1e-12)
        num_l, den_l = 2 * mu_a * mu_b + v1, mu_a ** 2 + mu_b ** 2 + v1
        num_c, den_c = 2 * sd_a * sd_b + v2, sd_a ** 2 + sd_b ** 2 + v2
        lum, con = num_l / den_l, num_c / den_c
        total += 1.0 - lum * con
        dl_dmu = (2 * mu_a * den_l - num_l * 2 * mu_b) / den_l ** 2
        dc_dsd = (2 * sd_a * den_c - num_c * 2 * sd_b) / den_c ** 2
        dssim = con * dl_dmu / n + lum * dc_dsd * (b - mu_b) / (n * sd_b)
        grad[i] = -dssim
    batch = x.shape[0]
    return total / batch, grad / batch


LOSSES = {"mse": mse_loss, "ssim": ssim_loss}


def loss_named(name: str):
    """The loss function ``LOSSES[name]``; a ValueError for any other name."""
    if name not in LOSSES:
        raise ValueError(f"unknown loss {name!r}, expected one of {sorted(LOSSES)}")
    return LOSSES[name]


# -- optimizer ---------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, opt: AdamState, step: int,
              lr: float = ADAM_LR) -> dict:
    """One Adam update (step is 1-based); params are replaced, not mutated."""
    out = {}
    for name in sorted(params):
        g = grads[name]
        m = opt.m.get(name, 0.0) * ADAM_BETA1 + (1 - ADAM_BETA1) * g
        v = opt.v.get(name, 0.0) * ADAM_BETA2 + (1 - ADAM_BETA2) * g * g
        opt.m[name] = m
        opt.v[name] = v
        m_hat = m / (1 - ADAM_BETA1 ** step)
        v_hat = v / (1 - ADAM_BETA2 ** step)
        out[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out
