"""Tests for the conv behavioral model forward pass and the MLP building blocks."""

import numpy as np
import pytest
from scipy.special import expit

from padpd.network import (
    ACTIVATION_KINDS,
    Activation,
    ConvNetArch,
    ConvNetParams,
    MlpLayer,
    conv_forward,
    forward,
    forward_batch,
    init_params,
    load_params,
    mlp_forward,
    mlp_init,
    save_params,
)


def reference_forward(params, arch, graph):
    """Loop-based forward pass used as an independent check."""
    r, s = arch.kernel_rows, arch.kernel_cols
    b, c = arch.map_rows, arch.map_cols
    maps = np.zeros((arch.n_kernels, b, c))
    for l_i in range(arch.n_kernels):
        for i in range(b):
            for j in range(c):
                acc = params.conv_biases[l_i]
                for u in range(r):
                    for v in range(s):
                        acc += graph[i + u, j + v] * params.conv_kernels[l_i, u, v]
                maps[l_i, i, j] = acc
    maps = arch.conv_activation(maps)
    flat = []
    for l_i in range(arch.n_kernels):
        for i in range(b):
            for j in range(c):
                flat.append(maps[l_i, i, j])
    flat = np.array(flat)
    hidden = arch.fc_activation(flat @ params.fc_weights + params.fc_biases)
    return hidden @ params.out_weights + params.out_biases


def test_activation_values_and_derivatives():
    v = np.array([-2.0, -0.5, 0.0, 0.3, 1.7])
    cases = {
        "tanh": (np.tanh(v), 1 - np.tanh(v) ** 2),
        "sigmoid": (expit(v), expit(v) * (1 - expit(v))),
        "relu": (np.maximum(v, 0), (v > 0).astype(float)),
        "linear": (v, np.ones_like(v)),
    }
    for kind, (val, der) in cases.items():
        act = Activation(kind)
        assert np.allclose(act(v), val)
        assert np.allclose(act.derivative(v), der)

    leaky = Activation("leaky_relu", leak=0.1)
    assert np.allclose(leaky(v), np.where(v > 0, v, 0.1 * v))
    elu = Activation("elu", alpha=0.7)
    assert np.allclose(elu(v), np.where(v >= 0, v, 0.7 * np.expm1(v)))
    # derivative matches a numeric slope away from kinks
    smooth = v[v != 0.0]
    h = 1e-6
    for act in (leaky, elu, Activation("tanh")):
        num = (act(smooth + h) - act(smooth - h)) / (2 * h)
        assert np.allclose(act.derivative(smooth), num, atol=1e-6)
    with pytest.raises(ValueError):
        Activation("softmax")


@pytest.mark.parametrize("kind", ACTIVATION_KINDS)
def test_derivative_from_output_is_exact(kind):
    """The backward passes take the derivative from the forward outputs; it
    must equal `derivative` bit for bit, on strided input too."""
    act = Activation(kind, alpha=0.7, leak=0.1)
    v = np.concatenate([np.linspace(-40.0, 40.0, 4002), [0.0, -0.0, 1e-300, -1e-300, 710.0, -710.0]])
    for x in (v, v.reshape(-1, 3)[:, ::2].T):
        assert np.array_equal(act.derivative_from_output(x, act(x)), act.derivative(x))


def test_arch_shapes():
    arch = ConvNetArch()  # M=3, 3 kernels of 3x3, 6 fc neurons
    assert arch.input_shape == (5, 4)
    assert arch.map_rows == 3
    assert arch.map_cols == 2
    assert arch.n_flat_features == 18
    with pytest.raises(ValueError):
        ConvNetArch(kernel_cols=5)  # wider than the M+1 columns
    with pytest.raises(ValueError):
        ConvNetArch(kernel_rows=6)


def test_forward_matches_loop_reference():
    rng = np.random.default_rng(11)
    for arch in (
        ConvNetArch(),
        ConvNetArch(memory_depth=5, n_kernels=2, kernel_rows=2, kernel_cols=4, fc_neurons=4),
        ConvNetArch(memory_depth=0, kernel_cols=1, kernel_rows=5, n_kernels=1, fc_neurons=3),
    ):
        params = init_params(arch, seed=1)
        graphs = rng.standard_normal((6, *arch.input_shape))
        out = forward_batch(params, arch, graphs)
        assert out.shape == (6, 2)
        for k in range(6):
            assert np.allclose(out[k], reference_forward(params, arch, graphs[k]), rtol=1e-12)
            i_val, q_val = forward(params, arch, graphs[k])
            assert (i_val, q_val) == pytest.approx(tuple(out[k]))


def test_conv_forward_single_graph():
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=2, n_kernels=2)
    params = init_params(arch, seed=3)
    rng = np.random.default_rng(4)
    graph = rng.standard_normal(arch.input_shape)
    maps = conv_forward(graph, params, arch)
    assert maps.shape == (2, 4, 2)
    ref = np.tanh(
        params.conv_biases[0]
        + np.sum(graph[:2, :2] * params.conv_kernels[0])
    )
    assert maps[0, 0, 0] == pytest.approx(ref)


def test_init_params_seeded_and_bounded():
    arch = ConvNetArch()
    p1, p2 = init_params(arch, 7), init_params(arch, 7)
    for a, b in zip(p1.as_list(), p2.as_list()):
        assert np.array_equal(a, b)
    p3 = init_params(arch, 8)
    assert not np.array_equal(p1.conv_kernels, p3.conv_kernels)
    assert np.all(p1.conv_biases == 0) and np.all(p1.fc_biases == 0)
    # glorot bound for the fc layer
    limit = np.sqrt(6 / (arch.n_flat_features + arch.fc_neurons))
    assert np.max(np.abs(p1.fc_weights)) <= limit
    assert p1.n_coefficients == 158


def test_params_shape_check():
    arch = ConvNetArch()
    params = init_params(arch, 0)
    with pytest.raises(ValueError):
        params.check_shapes(ConvNetArch(memory_depth=5))
    with pytest.raises(ValueError):
        forward_batch(params, arch, np.zeros((3, 5, 9)))


def test_mlp_forward_reference():
    rng = np.random.default_rng(5)
    layers = mlp_init([4, 3, 2], Activation("tanh"), seed=2)
    assert len(layers) == 2
    x = rng.standard_normal((7, 4))
    out = mlp_forward(layers, x)
    hidden = np.tanh(x @ layers[0].weights + layers[0].biases)
    assert np.allclose(out, hidden @ layers[1].weights + layers[1].biases)
    # single-vector call agrees with the batch row
    assert np.allclose(mlp_forward(layers, x[0]), out[0])
    with pytest.raises(ValueError):
        mlp_forward(layers, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        mlp_init([4], Activation("tanh"))
    with pytest.raises(ValueError):
        MlpLayer(np.zeros((3, 2)), np.zeros(3))


def test_save_load_roundtrip(tmp_path):
    arch = ConvNetArch(memory_depth=2, kernel_cols=3, fc_neurons=5,
                       fc_activation=Activation("sigmoid"))
    params = init_params(arch, 9)
    path = tmp_path / "model.json"
    save_params(params, arch, path)
    back_params, back_arch = load_params(path)
    assert back_arch == arch
    for a, b in zip(params.as_list(), back_params.as_list()):
        assert np.array_equal(a, b)
    graphs = np.random.default_rng(1).standard_normal((4, *arch.input_shape))
    assert np.array_equal(
        forward_batch(params, arch, graphs), forward_batch(back_params, back_arch, graphs)
    )
