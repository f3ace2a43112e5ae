import numpy as np
import pytest

from securejscc.codec import (AdamState, CodecSpec, adam_step, decode,
                              decode_backward, dense_backward, dense_forward,
                              dense_init, encode, encode_backward, init_params,
                              mse_loss, param_shapes, ssim_loss)
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
    with pytest.raises(ValueError):
        CodecSpec(kind="mlp", input_shape=(4, 4, 1), k=8, latent_scale=1.0,
                  hidden_sizes=(8, 8, 8))


@pytest.mark.parametrize("shape, k, hidden", [((0, 4, 1), 8, ()), ((4, -4, 1), 8, ()),
                                              ((4, 4, 1), 0, ()), ((4, 4, 1), 8, (0,))])
def test_spec_rejects_non_positive_sizes(shape, k, hidden):
    with pytest.raises(ValueError, match="must be positive"):
        CodecSpec(kind="mlp", input_shape=shape, k=k, latent_scale=1.0,
                  hidden_sizes=hidden)


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
    params = dense_init([5, 7, 3], "net", rng)
    x = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 3))

    def loss_value():
        out, _ = dense_forward(params, "net", x, 2)
        return mse_loss(target, out)[0]

    out, cache = dense_forward(params, "net", x, 2)
    _, grad_out = mse_loss(target, out)
    grads, _ = dense_backward(params, "net", cache, grad_out, 2)
    for name in params:
        num = numerical_grad(loss_value, params, name)
        assert np.allclose(grads[name], num, rtol=1e-5, atol=1e-8), name


def test_mlp_codec_end_to_end_gradcheck():
    spec = CodecSpec(kind="mlp", input_shape=(3, 3, 1), k=4,
                     latent_scale=100.0, hidden_sizes=(6,))
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
    grads, grad_z = decode_backward(grad_x, spec, params, dec_cache)
    grads.update(encode_backward(grad_z, spec, params, enc_cache))
    for name in params:
        num = numerical_grad(loss_value, params, name)
        assert np.allclose(grads[name], num, rtol=1e-4, atol=1e-7), name


def test_ssim_loss_gradcheck():
    rng = stream(8)
    x = rng.uniform(0, 255, (2, 16))
    x_hat = rng.uniform(0, 255, (2, 16))
    loss, grad = ssim_loss(x, x_hat)
    h = 1e-5
    for i in (0, 5, 12):
        for b in (0, 1):
            x_hat[b, i] += h
            up = ssim_loss(x, x_hat)[0]
            x_hat[b, i] -= 2 * h
            down = ssim_loss(x, x_hat)[0]
            x_hat[b, i] += h
            assert np.isclose(grad[b, i], (up - down) / (2 * h),
                              rtol=1e-4, atol=1e-10)


# -- optimizer ---------------------------------------------------------------


def test_adam_zero_lr_is_identity():
    params = {"w": np.ones(4)}
    grads = {"w": np.full(4, 3.0)}
    out = adam_step(params, grads, AdamState(), step=1, lr=0.0)
    assert np.array_equal(out["w"], params["w"])


def test_adam_minimizes_quadratic():
    params = {"w": np.array([5.0, -3.0])}
    opt = AdamState()
    for step in range(1, 3000):
        grads = {"w": 2.0 * params["w"]}
        params = adam_step(params, grads, opt, step, lr=0.01)
    assert np.all(np.abs(params["w"]) < 1e-3)


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
