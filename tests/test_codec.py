import copy
import pickle
import re

import numpy as np
import pytest

from securejscc.codec import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, CodecSpec,
                              FlatArrays, _sigmoid, adam_step, decode, decode_backward,
                              dense_backward, dense_forward, dense_shapes, encode,
                              encode_backward, init_arrays, init_params, mse_loss,
                              param_shapes)
from securejscc.config import load_codec, save_codec
from securejscc.quantizer import QuantizerConfig, hard_quantize
from securejscc.rng import stream

P = 4093
IDENT = CodecSpec(kind="identity", input_shape=(4, 4, 1), k=16,
                  latent_scale=P / 256.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        CodecSpec(kind="identity", input_shape=(4, 4, 1), k=8, latent_scale=1.0)
    # the identity codec has no layers: hidden sizes are rejected, not ignored
    with pytest.raises(ValueError, match="no hidden_sizes"):
        CodecSpec(kind="identity", input_shape=(4, 4, 1), k=16, latent_scale=1.0,
                  hidden_sizes=(8,))
    with pytest.raises(ValueError):
        CodecSpec(kind="conv", input_shape=(4, 4, 1), k=8, latent_scale=1.0)


@pytest.mark.parametrize("shape, k, hidden", [((0, 4, 1), 8, ()), ((4, -4, 1), 8, ()),
                                              ((4, 4, 1), 0, ()), ((4, 4, 1), 8, (0,))])
def test_spec_rejects_non_positive_sizes(shape, k, hidden):
    with pytest.raises(ValueError, match="must be positive"):
        CodecSpec(kind="mlp", input_shape=shape, k=k, latent_scale=1.0,
                  hidden_sizes=hidden)


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_spec_rejects_non_positive_latent_scale(scale):
    with pytest.raises(ValueError, match="latent_scale must be positive"):
        CodecSpec(kind="identity", input_shape=(4, 4, 1), k=16, latent_scale=scale)


def test_param_shapes_match_init_params():
    spec = CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=8, latent_scale=1.0,
                     hidden_sizes=(12, 6))
    params = init_params(spec, stream(1))
    assert param_shapes(spec) == {name: a.shape for name, a in params.items()}
    assert param_shapes(IDENT) == {}


def test_identity_encode_scaling():
    x = np.zeros((1, 16))
    x[0, 0] = 255.0
    z, _ = encode(x, IDENT, {})
    assert z[0, 1] == 0.0
    assert np.isclose(z[0, 0], 255.0 * P / 256.0)


def test_identity_round_trip_exact():
    rng = stream(0)
    x = rng.uniform(0, 255, (3, 16))
    z, _ = encode(x, IDENT, {})
    x_hat, _ = decode(z, IDENT, {})
    assert np.allclose(x_hat, x, atol=1e-12)


def test_identity_through_hard_quantization_error_bound():
    # half centroid spacing in pixel units inside the centroid span; the top
    # of the pixel range sits above the last centroid and doubles the bound
    cfg = QuantizerConfig(P, 16)
    spacing_px = (P / 16) / 2 * (256 / P)  # about 8 gray levels
    grays = np.arange(256, dtype=np.float64)
    for start in range(0, 256, 16):
        x = grays[start:start + 16][None, :]
        z, _ = encode(x, IDENT, {})
        z_bar = hard_quantize(z[0], cfg).astype(float)
        x_hat, _ = decode(z_bar[None, :], IDENT, {})
        err = np.abs(x_hat[0] - x[0])
        in_span = z[0] <= cfg.centroids[-1] + (P / 16) / 2
        assert np.all(err[in_span] <= spacing_px + 1e-9)
        assert np.all(err <= 2 * spacing_px + 1e-9)


def test_mlp_zero_weights_constant_latent():
    spec = CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=8,
                     latent_scale=float(P), hidden_sizes=(12,))
    params = {name: np.zeros_like(arr)
              for name, arr in init_params(spec, stream(3)).items()}
    x = stream(4).uniform(0, 255, (5, 16))
    z, _ = encode(x, spec, params)
    # constant across inputs, pinned by the (zero) output bias and the squash
    assert np.allclose(z, z[0])
    assert np.allclose(z, spec.latent_scale * 0.5)
    params["enc.b1"] = np.full(8, 2.0)
    z, _ = encode(x, spec, params)
    assert np.allclose(z, spec.latent_scale / (1.0 + np.exp(-2.0)))


def test_all_zero_latent_constant_image():
    spec = CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=16,
                     latent_scale=float(P))
    params = init_params(spec, stream(5))
    x_hat, _ = decode(np.zeros((3, 16)), spec, params)
    assert np.allclose(x_hat, x_hat[0])


def test_encode_shape_checks():
    with pytest.raises(ValueError):
        encode(np.zeros((1, 15)), IDENT, {})
    with pytest.raises(ValueError):
        decode(np.zeros((1, 15)), IDENT, {})


@pytest.mark.parametrize("shape", [(16,), (1, 1, 16)])
def test_codec_takes_rows_only(shape):
    # a single flattened image is one row of a (1, n) batch, not a 1-D array
    for f in (encode, decode):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            f(np.zeros(shape), IDENT, {})


# -- gradients ---------------------------------------------------------------


def numerical_grad(f, params, name, h=1e-6):
    grad = np.zeros_like(params[name])
    flat = grad.ravel()
    base = params[name].copy()
    for i in range(flat.size):
        params[name].ravel()[i] = base.ravel()[i] + h
        up = f()
        params[name].ravel()[i] = base.ravel()[i] - h
        down = f()
        flat[i] = (up - down) / (2 * h)
        params[name].ravel()[i] = base.ravel()[i]
    return grad


def test_dense_stack_gradcheck():
    rng = stream(6)
    params = init_arrays(dense_shapes([5, 7, 3], "net"), rng)
    x = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 3))

    def loss_value():
        out, _ = dense_forward(params, "net", x)
        return mse_loss(target, out)[0]

    out, cache = dense_forward(params, "net", x)
    _, grad_out = mse_loss(target, out)
    grads = FlatArrays(params.shapes)
    dense_backward(params, "net", cache, grad_out, grads)
    for name in params:
        num = numerical_grad(loss_value, params, name)
        assert np.allclose(grads[name], num, rtol=1e-5, atol=1e-8), name


def allocating_dense_backward(params: dict, prefix: str, cache: list,
                              grad_out: np.ndarray) -> tuple[dict, np.ndarray]:
    """Reference: every layer's gradients in new arrays, ``cache.T @ g`` and
    ``g.sum(axis=0)``, and the gradient at the first layer's output (before
    ``W0``)."""
    grads, g = {}, grad_out
    for i in reversed(range(len(cache))):
        grads[f"{prefix}.W{i}"] = cache[i].T @ g
        grads[f"{prefix}.b{i}"] = g.sum(axis=0)
        if i:
            g = g @ params[f"{prefix}.W{i}"].T
            g = g * (1.0 - cache[i] ** 2)
    return grads, g


@pytest.mark.parametrize("sizes", [[9, 4], [9, 12, 4], [9, 12, 7, 4]],
                         ids=["depth_1", "depth_2", "depth_3"])
def test_dense_backward_into_views_matches_allocating_oracle_bit_for_bit(sizes):
    rng = stream(11)
    params = init_arrays(dense_shapes(sizes, "net"), rng)
    grads = FlatArrays(params.shapes, np.full(params.vector.size, np.nan))
    for batch in (1, 10, 33):
        x = rng.normal(0.0, 2.0, (batch, sizes[0]))
        out, cache = dense_forward(params, "net", x)
        grad_out = rng.standard_normal(out.shape)
        g_out = dense_backward(params, "net", cache, grad_out, grads)
        want, want_out = allocating_dense_backward(params, "net", cache, grad_out)
        assert grads.keys() == want.keys()
        assert all(grads[name].base is grads.vector for name in grads)  # written in place
        for name in want:
            assert np.array_equal(grads[name].view(np.int64), want[name].view(np.int64))
        assert np.array_equal(g_out.view(np.int64), want_out.view(np.int64))


@pytest.mark.parametrize("hidden_sizes", [(), (6,), (6, 4), (6, 5, 4)],
                         ids=["no_hidden", "one_hidden", "two_hidden", "three_hidden"])
def test_mlp_codec_end_to_end_gradcheck(hidden_sizes):
    # the stack depth is read from the parameters: check every depth
    spec = CodecSpec(kind="mlp", input_shape=(3, 3, 1), k=4,
                     latent_scale=100.0, hidden_sizes=hidden_sizes)
    rng = stream(7)
    params = init_params(spec, rng)
    x = rng.uniform(0, 255, (2, 9))

    def loss_value():
        z, _ = encode(x, spec, params)
        x_hat, _ = decode(z, spec, params)
        return mse_loss(x, x_hat)[0]

    z, enc_cache = encode(x, spec, params)
    x_hat, dec_cache = decode(z, spec, params)
    _, grad_x = mse_loss(x, x_hat)
    grads = FlatArrays(params.shapes)
    grad_z = decode_backward(grad_x, spec, params, dec_cache, grads)
    encode_backward(grad_z, params, enc_cache, grads)
    for name in params:
        num = numerical_grad(loss_value, params, name)
        assert np.allclose(grads[name], num, rtol=1e-4, atol=1e-7), name


class UntransposableWeights(np.ndarray):
    """A weight matrix whose transpose may not be read."""

    @property
    def T(self):
        raise AssertionError("read the first layer's W0.T")


@pytest.mark.parametrize("hidden_sizes", [(), (6,)], ids=["no_hidden", "one_hidden"])
def test_backward_passes_never_form_the_gradient_their_callers_drop(hidden_sizes):
    # the encoder's input is the image, and the adversary's the features: no
    # caller uses their gradient, so neither backward pass reads W0.T
    spec = CodecSpec(kind="mlp", input_shape=(3, 3, 1), k=4,
                     latent_scale=100.0, hidden_sizes=hidden_sizes)
    rng = stream(12)
    params = init_params(spec, rng)
    z, enc_cache = encode(rng.uniform(0, 255, (5, 9)), spec, params)
    grads = FlatArrays(params.shapes, np.full(params.vector.size, np.nan))
    params["enc.W0"] = params["enc.W0"].view(UntransposableWeights)
    encode_backward(rng.standard_normal(z.shape), params, enc_cache, grads)
    assert not any(np.isnan(grads[name]).any() for name in params if name.startswith("enc"))

    # one step of the attack's MLP fit: forward, backward, Adam
    adv = init_arrays(dense_shapes([9, *hidden_sizes, 4], "adv"), rng)
    out, cache = dense_forward(adv, "adv", rng.standard_normal((5, 9)))
    _, grad_out = mse_loss(rng.standard_normal(out.shape), out)
    want, _ = allocating_dense_backward(adv, "adv", cache, grad_out)
    adv_grads = FlatArrays(adv.shapes)
    adv["adv.W0"] = adv["adv.W0"].view(UntransposableWeights)
    dense_backward(adv, "adv", cache, grad_out, adv_grads)
    adam_step(adv.vector, adv_grads.vector, np.zeros((2, adv.vector.size)), 1, lr=1e-3)
    for name in want:
        assert np.array_equal(adv_grads[name].view(np.int64), want[name].view(np.int64))


def masked_sigmoid(u: np.ndarray) -> np.ndarray:
    """Reference: each sign's overflow-free form, gathered by boolean masks."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_matches_masked_oracle_bit_for_bit():
    edges = [0.0, 1e-300, 708.0, 745.0, 800.0]
    u = np.concatenate([edges, np.negative(edges), stream(8).normal(0.0, 40.0, 4000)])
    assert np.array_equal(_sigmoid(u).view(np.int64), masked_sigmoid(u).view(np.int64))


# -- optimizer ---------------------------------------------------------------


def per_name_adam_step(params: dict, grads: dict, m: dict, v: dict, step: int,
                       lr: float) -> dict:
    """Reference: Kingma & Ba's update, one parameter array at a time; the
    moments ``m`` and ``v`` are updated in the dicts."""
    out = {}
    for name in sorted(params):
        g = grads[name]
        m[name] = m.get(name, 0.0) * ADAM_BETA1 + (1 - ADAM_BETA1) * g
        v[name] = v.get(name, 0.0) * ADAM_BETA2 + (1 - ADAM_BETA2) * g * g
        m_hat = m[name] / (1 - ADAM_BETA1 ** step)
        v_hat = v[name] / (1 - ADAM_BETA2 ** step)
        out[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


def zero_moments(params: dict) -> np.ndarray:
    """Adam's moments before step 1: a (2, n) zero buffer over the parameters."""
    return np.zeros((2, sum(a.size for a in params.values())))


def test_flat_adam_matches_per_name_oracle_bit_for_bit():
    # the toy codec's eight arrays, from step 1 with zero moments
    spec = CodecSpec(kind="mlp", input_shape=(8, 8, 1), k=16, latent_scale=251.0,
                     hidden_sizes=(32,))
    rng = stream(10)
    params = init_params(spec, rng)
    assert len(params) == 8
    ref, m, v = dict(params), {}, {}
    moments = zero_moments(params)
    for step in range(1, 61):
        grads = FlatArrays(params.shapes)
        for name, a in params.items():
            grads[name][...] = rng.normal(0.0, 10.0 ** rng.uniform(-6, 2), a.shape)
        new = FlatArrays(params.shapes, adam_step(params.vector, grads.vector, moments,
                                                  step, lr=3e-4))
        ref = per_name_adam_step(ref, grads, m, v, step, lr=3e-4)
        # replaced, not mutated: nothing returned aliases the input
        assert not any(np.shares_memory(new[a], params[b]) for a in new for b in params)
        assert new.keys() == ref.keys()
        for name in ref:
            assert new[name].shape == ref[name].shape
            assert np.array_equal(new[name].view(np.int64), ref[name].view(np.int64))
        # the buffer's rows are the per-name moments, in sorted name order
        for row, want in zip(moments, (m, v)):
            flat = np.concatenate([np.ravel(want[name]) for name in sorted(want)])
            assert np.array_equal(row.view(np.int64), flat.view(np.int64))
        params = new


def test_adam_zero_lr_is_identity():
    w = np.ones(4)
    out = adam_step(w, np.full(4, 3.0), np.zeros((2, 4)), step=1, lr=0.0)
    assert np.array_equal(out, w) and out is not w


def test_adam_minimizes_quadratic():
    w = np.array([5.0, -3.0])
    moments = np.zeros((2, 2))
    for step in range(1, 3000):
        w = adam_step(w, 2.0 * w, moments, step, lr=0.01)
    assert np.all(np.abs(w) < 1e-3)


def test_flat_arrays_view_one_vector_in_sorted_name_order():
    shapes = {"b": (2, 3), "a": (1,), "c": (0,)}
    assert not FlatArrays(shapes).vector.any() and FlatArrays(shapes).vector.shape == (7,)
    vector = np.arange(7.0)
    flat = FlatArrays(shapes, vector)
    assert list(flat) == ["a", "b", "c"] and flat.vector is vector and flat.shapes is shapes
    assert np.array_equal(flat["a"], [0.0])
    assert np.array_equal(flat["b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert flat["c"].shape == (0,)
    assert flat["a"].base is vector and flat["b"].base is vector
    flat["b"][1, 0] = -1.0  # a write through a view is a write to the vector
    assert vector[4] == -1.0
    for copied in (copy.deepcopy(flat), pickle.loads(pickle.dumps(flat))):
        assert copied.vector is not vector and np.array_equal(copied.vector, vector)
        copied["b"][0, 0] = 9.0
        assert copied.vector[1] == 9.0 and vector[1] == 1.0


# -- parameter files ---------------------------------------------------------


def test_codec_file_round_trip(tmp_path):
    spec = CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=8,
                     latent_scale=float(P), hidden_sizes=(12,))
    params = init_params(spec, stream(9))
    path = tmp_path / "codec.json"
    save_codec(spec, params, path)
    spec2, params2 = load_codec(path)
    assert spec2 == spec
    for name in params:
        assert np.allclose(params[name], params2[name])
