"""Tests for the conv behavioral model forward pass and the MLP building blocks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from padpd import network
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


def reference_maps(params, arch, graph):
    """Loop-based conv layer: the activated (L, B, C) feature maps."""
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
    return arch.conv_activation(maps)


def reference_forward(params, arch, graph):
    """Loop-based forward pass used as an independent check."""
    maps = reference_maps(params, arch, graph)
    flat = []
    for l_i in range(arch.n_kernels):
        for i in range(arch.map_rows):
            for j in range(arch.map_cols):
                flat.append(maps[l_i, i, j])
    flat = np.array(flat)
    hidden = arch.fc_activation(flat @ params.fc_weights + params.fc_biases)
    return hidden @ params.out_weights + params.out_biases


def with_random_biases(params, rng):
    """``params`` with non-zero biases, so the bias paths are exercised."""
    return ConvNetParams(params.conv_kernels, rng.normal(0, 0.3, params.conv_biases.shape),
                         params.fc_weights, rng.normal(0, 0.3, params.fc_biases.shape),
                         params.out_weights, rng.normal(0, 0.3, params.out_biases.shape))


ACTIVATIONS = st.builds(Activation, st.sampled_from(ACTIVATION_KINDS),
                        alpha=st.floats(0.2, 3.0), leak=st.floats(0.01, 0.5))


@st.composite
def conv_archs(draw):
    """Every legal arch with memory depth 0-6 and 1-4 kernels."""
    m = draw(st.integers(0, 6))
    return ConvNetArch(
        memory_depth=m,
        n_kernels=draw(st.integers(1, 4)),
        kernel_rows=draw(st.integers(1, 5)),
        kernel_cols=draw(st.integers(1, m + 1)),
        fc_neurons=draw(st.integers(1, 6)),
        conv_activation=draw(ACTIVATIONS),
        fc_activation=draw(ACTIVATIONS),
    )


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


@settings(max_examples=80, deadline=None)
@given(arch=conv_archs(), n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_im2col_core_matches_loop_reference(arch, n, seed):
    """The one-GEMM conv layer (bias from the ones column) and the kernel-major
    flattening agree with the loop, for every kernel shape and activation."""
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    graphs = rng.standard_normal((n, *arch.input_shape))
    ref_maps = np.array([reference_maps(params, arch, g) for g in graphs])
    features = forward_batch(params, arch, graphs, features=True)
    np.testing.assert_allclose(features, ref_maps.reshape(n, -1), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(conv_forward(graphs[0], params, arch), ref_maps[0], rtol=1e-12, atol=1e-12)
    ref_out = np.array([reference_forward(params, arch, g) for g in graphs])
    np.testing.assert_allclose(forward_batch(params, arch, graphs), ref_out, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(conv_act=ACTIVATIONS, fc_act=ACTIVATIONS, n=st.integers(2, 40),
       block=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_forward_batch_blocks_keep_bytes(conv_act, fc_act, n, block, seed):
    """Over several row blocks, `forward_batch` gives the bytes of its per-block
    calls and of row-by-row `forward`, on the paper's layer shapes. (OpenBLAS
    picks its GEMM kernel by matrix shape, and for some shapes, such as one
    kernel or a 2-neuron FC layer, a product's sums round differently at
    different row counts.)"""
    arch = ConvNetArch(conv_activation=conv_act, fc_activation=fc_act)
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    graphs = rng.standard_normal((n, *arch.input_shape))
    whole = forward_batch(params, arch, graphs)
    rows = np.array([forward(params, arch, g) for g in graphs])
    per_block = np.concatenate([forward_batch(params, arch, graphs[i : i + block])
                                for i in range(0, n, block)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_FORWARD_BLOCK_ROWS", block)
        blocked = forward_batch(params, arch, graphs)
    assert blocked.tobytes() == whole.tobytes()
    assert per_block.tobytes() == whole.tobytes()
    assert rows.tobytes() == whole.tobytes()


def test_forward_batch_memory_does_not_grow_with_rows():
    """Net of its input and output, `forward_batch` holds one block's unrolled
    windows at a time: the same tracemalloc peak for 2 blocks as for 8."""
    arch = ConvNetArch(memory_depth=0, n_kernels=2, kernel_rows=2, kernel_cols=1, fc_neurons=2)
    params = init_params(arch, 0)
    rng = np.random.default_rng(0)
    net_peaks = []
    for n_blocks in (2, 8):
        graphs = rng.standard_normal((n_blocks * network._FORWARD_BLOCK_ROWS, *arch.input_shape))
        tracemalloc.start()
        try:
            out = forward_batch(params, arch, graphs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        net_peaks.append(peak - out.nbytes)
    cells = arch.map_rows * arch.map_cols
    block_windows = network._FORWARD_BLOCK_ROWS * cells * (arch.kernel_rows * arch.kernel_cols + 1) * 8
    assert net_peaks[1] <= net_peaks[0] + block_windows // 10, net_peaks


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
