"""Tests for the Adam stage, the LM polish, and their shared plumbing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padpd import network, training
from padpd.baselines import MLP_BASELINES, mlp_features_from_graphs
from padpd.dataset import Dataset, build_dataset
from padpd.network import (
    _im2col,
    ACTIVATION_KINDS,
    Activation,
    ConvNetArch,
    ConvNetParams,
    LINEAR,
    MlpLayer,
    Net,
    Workspace,
    conv_net,
    forward_batch,
    init_params,
    mlp_forward,
    mlp_init,
)
from padpd.signals import ComplexSeq
from padpd.training import (
    AdamConfig,
    _fc_normal_equations,
    LmConfig,
    TrainingError,
    _Split,
    adam_minimize,
    adam_step,
    backprop_grads,
    lm_minimize,
    mse_cost,
    train_mlp_baseline,
    train_stage1_adam,
    train_stage2_lm,
)
from test_network import conv_archs, conv_features, with_random_biases


def mlp_cost_and_grads(layers, x, labels):
    """MSE cost and per-layer (dW, db) of a plain MLP over x (N, D)."""
    net = Net.of(layers)
    grad = net.like(np.empty_like(net.theta))
    cost = _Split(net, [x.T], labels, backward=True).cost_and_grad(grad)
    return cost, [(g.weights, g.biases) for g in grad.layers]


def train_mlp(layers, x, labels, cfg):
    """`adam_minimize` over every weight and bias of an MLP over x (N, D), as
    `train_mlp_baseline` runs it on a baseline's features."""
    net = Net.of(layers)
    return net.layers, adam_minimize(_Split(net, [x.T], labels, backward=True), cfg)


def tiny_task(arch, n=60, seed=0, label_seed=1):
    """Random graphs with labels from a slightly perturbed random net."""
    rng = np.random.default_rng(seed)
    graphs = rng.standard_normal((n, *arch.input_shape)) * 0.4
    teacher = init_params(arch, label_seed)
    labels = forward_batch(teacher, arch, graphs)
    labels = labels + 0.01 * rng.standard_normal(labels.shape)
    return Dataset(graphs, labels, "train")


# The list-based training loop that the flat-vector loop replaced, kept as
# its reference: Adam over one array per layer parameter, with the cost and
# gradients of allocating forward and backward passes, and the parameters
# rebuilt from the arrays at every call. Every float operation is the one the
# flat-vector loop makes, on the same operands, so the two agree bit for bit.

def ref_forward_parts(layers, x):
    acts, pres = [x], []
    for layer in layers:
        pres.append(layer.weights.T @ acts[-1] + layer.biases[:, None])
        acts.append(layer.act(pres[-1]))
    return pres, acts


def ref_cost_and_output_delta(outputs, targets):
    n = targets.shape[1]
    resid = outputs - targets
    return float((resid * resid).sum() / (2 * n)), resid / n


def ref_backprop(layers, pres, acts, d_out):
    grads = [None] * len(layers)
    delta = d_out
    for j in range(len(layers) - 1, -1, -1):
        delta = delta * layers[j].act.derivative_from_output(pres[j], acts[j + 1])
        grads[j] = (acts[j] @ delta.T, delta.sum(axis=1))
        if j:
            delta = layers[j].weights @ delta
    return grads, delta


def ref_conv_forward(params, arch, cols):
    ker = params.conv_kernels
    pre = np.column_stack([ker.reshape(ker.shape[0], -1), params.conv_biases]) @ cols
    maps = arch.conv_activation(pre).reshape(arch.n_flat_features, -1)
    head = [MlpLayer(params.fc_weights, params.fc_biases, arch.fc_activation),
            MlpLayer(params.out_weights, params.out_biases, LINEAR)]
    return pre, head, *ref_forward_parts(head, maps)


def ref_conv_cost_and_grads(params, arch, cols, targets):
    pre, head, pres, acts = ref_conv_forward(params, arch, cols)
    cost, d_out = ref_cost_and_output_delta(acts[-1], targets)
    (g_fc, g_out), d_fc = ref_backprop(head, pres, acts, d_out)
    d_pre = (params.fc_weights @ d_fc).reshape(arch.n_kernels, -1)
    d_pre *= arch.conv_activation.derivative_from_output(pre, acts[0].reshape(arch.n_kernels, -1))
    g_conv = d_pre @ cols.T
    return cost, [g_conv[:, :-1].reshape(params.conv_kernels.shape), g_conv[:, -1], *g_fc, *g_out]


def ref_adam_step(values, grads, ms, vs, k, cfg):
    b1c = 1.0 - cfg.beta1**k
    b2c = 1.0 - cfg.beta2**k
    out = []
    for val, grad, m, v in zip(values, grads, ms, vs):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * grad * grad
        out.append(val - cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + cfg.epsilon))
    return out


def ref_adam_minimize(values, cost_and_grads, cfg, test_cost=None):
    ms, vs = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
    history = []
    for it in range(1, cfg.max_iters + 1):
        cost, grads = cost_and_grads(values)
        if not np.isfinite(cost):
            raise TrainingError(f"Adam diverged at iteration {it} (mse={cost})")
        history.append((it, cost) if test_cost is None else (it, cost, test_cost(values)))
        if cost < cfg.mse_threshold:
            break
        values = ref_adam_step(values, grads, ms, vs, it, cfg)
    return values, np.asarray(history)


def ref_train_stage1(params, arch, train, cfg, test=None):
    train_cols = _im2col(train.graphs, arch)
    test_cols = None if test is None else _im2col(test.graphs, arch)

    def cost_and_grads(values):
        return ref_conv_cost_and_grads(ConvNetParams.from_list(values), arch, train_cols, train.labels.T)

    def test_cost(values):
        outputs = ref_conv_forward(ConvNetParams.from_list(values), arch, test_cols)[3][-1]
        return ref_cost_and_output_delta(outputs, test.labels.T)[0]

    values, history = ref_adam_minimize([a.copy() for a in params.as_list()], cost_and_grads, cfg,
                                        None if test is None else test_cost)
    return ConvNetParams.from_list(values), history


def ref_train_mlp(layers, x, labels, cfg):
    def rebuild(values):
        return [MlpLayer(values[2 * j], values[2 * j + 1], layer.act) for j, layer in enumerate(layers)]

    def cost_and_grads(values):
        pres, acts = ref_forward_parts(rebuild(values), x.T)
        cost, d_out = ref_cost_and_output_delta(acts[-1], labels.T)
        return cost, [g for dw_db in ref_backprop(rebuild(values), pres, acts, d_out)[0] for g in dw_db]

    values = [a.copy() for layer in layers for a in (layer.weights, layer.biases)]
    values, history = ref_adam_minimize(values, cost_and_grads, cfg)
    return rebuild(values), history


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_mse_cost_formula():
    arch = ConvNetArch(memory_depth=1, kernel_cols=2, kernel_rows=2, n_kernels=2, fc_neurons=3)
    data = tiny_task(arch, n=17)
    params = init_params(arch, 5)
    out = forward_batch(params, arch, data.graphs)
    resid = out - data.labels
    expect = np.sum(resid**2) / (2 * 17)
    assert mse_cost(params, arch, data) == pytest.approx(expect, rel=1e-12)


def row_major_cost_and_grads(params, arch, graphs, labels):
    """Cost and gradients in the row-major layout: one im2col row per map
    cell (N*B*C, r*s+1), the maps transposed into kernel-major (N, L*B*C)
    rows for the head and back, the batch along axis 0."""
    n, l_k, r, s = len(graphs), arch.n_kernels, arch.kernel_rows, arch.kernel_cols
    b, c = arch.map_rows, arch.map_cols
    cols = np.ones((n, b, c, r * s + 1))
    for u in range(r):
        for v in range(s):
            cols[..., u * s + v] = graphs[:, u : u + b, v : v + c]
    cols = cols.reshape(-1, r * s + 1)
    pre = cols @ np.column_stack([params.conv_kernels.reshape(l_k, -1), params.conv_biases]).T
    flat = arch.conv_activation(pre).reshape(n, b * c, l_k).transpose(0, 2, 1).reshape(n, -1)
    fc_pre = flat @ params.fc_weights + params.fc_biases
    fc_out = arch.fc_activation(fc_pre)
    resid = fc_out @ params.out_weights + params.out_biases - labels
    d_out = resid / n
    d_fc = (d_out @ params.out_weights.T) * arch.fc_activation.derivative(fc_pre)
    d_flat = (d_fc @ params.fc_weights.T).reshape(n, l_k, b * c).transpose(0, 2, 1).reshape(-1, l_k)
    g_conv = (d_flat * arch.conv_activation.derivative(pre)).T @ cols
    return np.sum(resid**2) / (2 * n), [g_conv[:, :-1].reshape(l_k, r, s), g_conv[:, -1],
                                        flat.T @ d_fc, d_fc.sum(axis=0), fc_out.T @ d_out, d_out.sum(axis=0)]


@settings(max_examples=80, deadline=None)
@given(arch=conv_archs(), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
@example(arch=ConvNetArch(n_kernels=1), n=1, seed=0)
@example(arch=ConvNetArch(n_kernels=1, fc_activation=Activation("sigmoid")), n=7, seed=1)
def test_cost_and_grads_match_row_major_oracle(arch, n, seed):
    """The feature-major cost and gradients equal the row-major formulation's
    for every kernel shape and activation. The absolute floor is 1e-12 of
    each gradient array's largest entry, for entries that cancel to about zero."""
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    graphs = rng.standard_normal((n, *arch.input_shape))
    labels = rng.standard_normal((n, 2))
    data = Dataset(graphs, labels, "train")
    cost, grads = mse_cost(params, arch, data), backprop_grads(params, arch, data)
    ref_cost, ref_grads = row_major_cost_and_grads(params, arch, graphs, labels)
    assert cost == pytest.approx(ref_cost, rel=1e-12)
    for got, want in zip(grads.as_list(), ref_grads):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_backprop_matches_finite_differences():
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=3, n_kernels=2, fc_neurons=4)
    data = tiny_task(arch, n=25, seed=3)
    params = init_params(arch, 11)
    grads = backprop_grads(params, arch, data)

    h = 1e-6
    rng = np.random.default_rng(0)
    arrays = params.as_list()
    grad_arrays = grads.as_list()
    for a_idx in range(len(arrays)):
        flat_idx = rng.integers(0, arrays[a_idx].size, size=min(4, arrays[a_idx].size))
        for fi in flat_idx:
            for sgn, store in ((1, "plus"), (-1, "minus")):
                bumped = [a.copy() for a in arrays]
                bumped[a_idx].ravel()[fi] += sgn * h
                cost = mse_cost(ConvNetParams.from_list(bumped), arch, data)
                if store == "plus":
                    c_plus = cost
                else:
                    c_minus = cost
            numeric = (c_plus - c_minus) / (2 * h)
            analytic = grad_arrays[a_idx].ravel()[fi]
            assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-9)


def test_adam_step_reference_update():
    cfg = AdamConfig(learning_rate=0.1)
    theta = np.array([1.0, -2.0])
    moments = np.zeros(2), np.zeros(2)

    m = np.zeros(2)
    v = np.zeros(2)
    ref = theta.copy()
    for k in range(1, 4):
        grad = np.array([0.5, -1.5]) * k
        m = cfg.beta1 * m + (1 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1 - cfg.beta2) * grad**2
        m_hat = m / (1 - cfg.beta1**k)
        v_hat = v / (1 - cfg.beta2**k)
        ref = ref - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        adam_step(theta, np.array([0.5, -1.5]) * k, *moments, k, cfg)
    assert np.allclose(theta, ref, rtol=1e-12)


def test_stage1_descends_and_stops_at_threshold():
    arch = ConvNetArch(memory_depth=1, kernel_cols=2, kernel_rows=2, n_kernels=2, fc_neurons=3)
    data = tiny_task(arch, n=80)
    params = init_params(arch, 2)
    cfg = AdamConfig(max_iters=300, mse_threshold=0.0)
    trained, hist = train_stage1_adam(params, arch, data, cfg)
    assert hist.shape == (300, 2)
    assert hist[-1, 1] < hist[0, 1] * 0.5  # solid improvement
    assert mse_cost(trained, arch, data) <= hist[-1, 1]

    # threshold met at the first evaluation: no update happens
    lazy, hist0 = train_stage1_adam(params, arch, data, AdamConfig(mse_threshold=1e9))
    assert hist0.shape == (1, 2)
    for a, b in zip(lazy.as_list(), params.as_list()):
        assert np.array_equal(a, b)

    # with a test split the history grows a third column
    test = tiny_task(arch, n=30, seed=9)
    _, hist3 = train_stage1_adam(params, arch, data, AdamConfig(max_iters=5, mse_threshold=0.0), test)
    assert hist3.shape == (5, 3)


def test_stage1_matches_the_public_gradient_path():
    """Stage 1 trains on one flat vector with preallocated workspaces; driving
    the list-based reference loop with `backprop_grads`/`mse_cost`, which
    build theirs afresh at every call, must give the same bytes."""
    arch = ConvNetArch(conv_activation=Activation("sigmoid"))
    train, test = tiny_task(arch, n=70, seed=4), tiny_task(arch, n=30, seed=5)
    params = init_params(arch, 3)
    cfg = AdamConfig(max_iters=6, mse_threshold=0.0)
    trained, hist = train_stage1_adam(params, arch, train, cfg, test)

    def cost_and_grads(values):
        p = ConvNetParams.from_list(values)
        return mse_cost(p, arch, train), backprop_grads(p, arch, train).as_list()

    ref, ref_hist = ref_adam_minimize(params.as_list(), cost_and_grads, cfg,
                                      lambda values: mse_cost(ConvNetParams.from_list(values), arch, test))
    assert hist.shape == (6, 3) and np.array_equal(hist, ref_hist)
    assert_same_bytes(trained.as_list(), ref)


def _stage1_case(case):
    arch = ConvNetArch()
    train, test = tiny_task(arch, n=90, seed=21), tiny_task(arch, n=40, seed=22)
    cfg = AdamConfig(max_iters=40, mse_threshold=0.0)
    if case == "threshold":
        full = ref_train_stage1(init_params(arch, 4), arch, train, cfg)[1]
        cfg = AdamConfig(max_iters=40, mse_threshold=np.nextafter(full[24, 1], np.inf))
    if case == "diverged":
        cfg = AdamConfig(learning_rate=1e200, max_iters=40, mse_threshold=0.0)
    return arch, train, test if case == "test_split" else None, cfg


@pytest.mark.parametrize("case", ["train_only", "test_split", "threshold", "diverged"])
def test_stage1_matches_list_reference(case):
    """The flat-vector loop gives the list-based loop's history and parameters
    byte for byte: with and without a test split, on a threshold stop, and
    the same error when the cost diverges."""
    arch, train, test, cfg = _stage1_case(case)
    params = init_params(arch, 4)
    if case == "diverged":
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as ref_err:
            ref_train_stage1(params, arch, train, cfg, test)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError) as err:
            train_stage1_adam(params, arch, train, cfg, test)
        assert str(err.value) == str(ref_err.value)
        assert "diverged at iteration 2 " in str(err.value)
        return
    trained, hist = train_stage1_adam(params, arch, train, cfg, test)
    ref, ref_hist = ref_train_stage1(params, arch, train, cfg, test)
    assert hist.tobytes() == ref_hist.tobytes() and hist.shape == ref_hist.shape
    assert_same_bytes(trained.as_list(), ref.as_list())
    if case == "threshold":
        assert len(hist) == 25


@pytest.mark.parametrize("name", sorted(MLP_BASELINES))
def test_mlp_adam_matches_list_reference(name):
    """`train_mlp_baseline` gives the list-based loop's bytes on every
    baseline's features, widths and activation."""
    spec = MLP_BASELINES[name]
    rng = np.random.default_rng(12)
    graphs = rng.standard_normal((150, 5, 4)) * 0.5
    x = mlp_features_from_graphs(graphs, spec.feature_kind)
    labels = np.tanh(x[:, :2]) * 0.3
    cfg = AdamConfig(max_iters=30, mse_threshold=0.0)
    trained, hist = train_mlp_baseline(spec, Dataset(graphs, labels, "train"), cfg, seed=1)
    layers = mlp_init(spec.widths(3), Activation(spec.hidden_activation), seed=1)
    ref, ref_hist = ref_train_mlp(layers, x, labels, cfg)
    assert hist.tobytes() == ref_hist.tobytes() and hist.shape == ref_hist.shape
    assert_same_bytes([a for l in trained for a in (l.weights, l.biases)],
                      [a for l in ref for a in (l.weights, l.biases)])
    assert [l.act for l in trained] == [l.act for l in ref]


@settings(max_examples=60, deadline=None)
@given(arch=conv_archs(), n=st.integers(1, 30), n_test=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
@example(arch=ConvNetArch(n_kernels=1), n=1, n_test=1, seed=0)
def test_stage1_matches_list_reference_on_every_arch(arch, n, n_test, seed):
    """Byte agreement with the list-based loop for every kernel shape,
    activation, kernel and neuron count, batch size and test split."""
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    train = Dataset(rng.standard_normal((n, *arch.input_shape)), rng.standard_normal((n, 2)), "train")
    test = (Dataset(rng.standard_normal((n_test, *arch.input_shape)), rng.standard_normal((n_test, 2)), "test")
            if n_test else None)
    cfg = AdamConfig(learning_rate=0.01, max_iters=4, mse_threshold=0.0)
    trained, hist = train_stage1_adam(params, arch, train, cfg, test)
    ref, ref_hist = ref_train_stage1(params, arch, train, cfg, test)
    assert hist.tobytes() == ref_hist.tobytes()
    assert_same_bytes(trained.as_list(), ref.as_list())


@settings(max_examples=40, deadline=None)
@given(arch=conv_archs(), n=st.integers(1, 30), n_test=st.integers(1, 12),
       threshold=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
@example(arch=ConvNetArch(), n=30, n_test=12, threshold=0.0, seed=0)
def test_stage1_test_split_only_observes(arch, n, n_test, threshold, seed):
    """Scoring a test split each iteration changes neither the trained
    parameters nor the (iteration, mse_train) columns, byte for byte: the
    split's forward pass reads the parameters and writes only its own buffers."""
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    train = Dataset(rng.standard_normal((n, *arch.input_shape)), rng.standard_normal((n, 2)), "train")
    test = Dataset(rng.standard_normal((n_test, *arch.input_shape)), rng.standard_normal((n_test, 2)), "test")
    cfg = AdamConfig(learning_rate=0.01, max_iters=6, mse_threshold=threshold)
    trained, hist = train_stage1_adam(params, arch, train, cfg)
    observed, observed_hist = train_stage1_adam(params, arch, train, cfg, test)
    assert hist.shape[1] == 2 and observed_hist.shape == (hist.shape[0], 3)
    assert observed_hist[:, :2].tobytes() == hist.tobytes()
    assert_same_bytes(trained.as_list(), observed.as_list())


@settings(max_examples=60, deadline=None)
@given(widths=st.lists(st.integers(1, 8), min_size=2, max_size=5), out=st.integers(1, 3),
       kind=st.sampled_from(ACTIVATION_KINDS), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_mlp_adam_matches_list_reference_on_every_width(widths, out, kind, n, seed):
    """Byte agreement with the list-based loop for any depth, widths, hidden
    activation and batch size; the output may have 1-3 units."""
    rng = np.random.default_rng(seed)
    layers = mlp_init([*widths, out], Activation(kind, alpha=0.7, leak=0.1), seed=seed % 1000)
    x = rng.standard_normal((n, widths[0]))
    labels = rng.standard_normal((n, out))
    cfg = AdamConfig(learning_rate=0.01, max_iters=4, mse_threshold=0.0)
    trained, hist = train_mlp(layers, x, labels, cfg)
    ref, ref_hist = ref_train_mlp(layers, x, labels, cfg)
    assert hist.tobytes() == ref_hist.tobytes()
    assert_same_bytes([a for l in trained for a in (l.weights, l.biases)],
                      [a for l in ref for a in (l.weights, l.biases)])


def _stage1_transient_peaks(max_iters):
    """tracemalloc's peak over each interval between `adam_step` calls, less
    the traced memory at the interval's start, on an 8400/5600 split of the
    paper's arch; and the traced memory at each interval's start."""
    arch = ConvNetArch()
    rng = np.random.default_rng(0)
    train = Dataset(rng.standard_normal((8400, *arch.input_shape)), rng.standard_normal((8400, 2)), "train")
    test = Dataset(rng.standard_normal((5600, *arch.input_shape)), rng.standard_normal((5600, 2)), "test")
    peaks, starts = [], []

    def traced_step(*args):
        current, peak = tracemalloc.get_traced_memory()
        if starts:
            peaks.append(peak - starts[-1])
        out = adam_step(*args)
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "adam_step", traced_step)
        tracemalloc.start()
        try:
            train_stage1_adam(init_params(arch, 1), arch, train, AdamConfig(max_iters=max_iters, mse_threshold=0.0),
                              test)
        finally:
            tracemalloc.stop()
    return peaks, starts


def test_stage1_iteration_allocates_little():
    """An iteration's transient allocations peak at no more than 3.8 MB on an
    8400/5600 split (the list-based loop's peak is about 7.7 MB), and neither
    that peak nor the memory held between iterations grows with the
    iteration count."""
    short_peaks, _ = _stage1_transient_peaks(4)
    peaks, starts = _stage1_transient_peaks(16)
    assert max(peaks) <= 3.8e6, peaks
    assert max(peaks) <= max(short_peaks) + 10_000, (short_peaks, peaks)
    assert starts[-1] - starts[0] <= 10_000, starts


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 200), cap=st.integers(1, 60))
def test_blocks_hold_each_sample_once(n, cap):
    """`blocks` cuts range(n) into the fewest consecutive slices of at most
    the cap, whose lengths differ by at most one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_BLOCK_SAMPLES", cap)
        blocks = network.blocks(n)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    lengths = [b.stop - b.start for b in blocks]
    assert len(blocks) == max(1, -(-n // cap))
    assert max(lengths) <= cap and max(lengths) - min(lengths) <= 1


def assert_grads_close(got, want):
    """Each gradient array within 1e-12 relative, with a floor of 1e-12 of its
    largest entry for entries that cancel to about zero."""
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


@settings(max_examples=60, deadline=None)
@given(arch=conv_archs(), n=st.integers(1, 40), cap=st.integers(3, 20), seed=st.integers(0, 2**32 - 1))
@example(arch=ConvNetArch(), n=40, cap=13, seed=0)
def test_conv_blocks_keep_the_cost_and_gradient(arch, n, cap, seed):
    """A conv split cut into blocks of at most ``cap`` samples gives the
    one-block split's cost byte for byte, with and without the backward pass,
    and its gradient to 1e-12; each block holds the `_im2col` columns of
    its own graphs.

    The bytes are kept where a row's forward pass has the same bytes in any
    batch: at least 2 kernels, at least 2 FC neurons and fewer than 15
    kernel taps, as in the paper's arch, and no block of one sample, which a
    cap of 3 or more never cuts. (numpy sends a one-row or one-column product
    to gemv, whose sums round unlike gemm's, and OpenBLAS picks another GEMM
    kernel for small blocks of 15 or more taps.) Elsewhere the cost agrees
    to 1e-14."""
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    data = Dataset(rng.standard_normal((n, *arch.input_shape)), rng.standard_normal((n, 2)), "train")
    one_cost, one_grad = mse_cost(params, arch, data), backprop_grads(params, arch, data)
    net = conv_net(params, arch)
    grad = net.like(np.empty_like(net.theta))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_BLOCK_SAMPLES", cap)
        split = training._conv_split(net, data, backward=True)
        costs = split.cost_and_grad(grad), mse_cost(params, arch, data)
        assert_grads_close(backprop_grads(params, arch, data).as_list(), one_grad.as_list())
    if arch.n_kernels > 1 and arch.fc_neurons > 1 and arch.kernel_rows * arch.kernel_cols < 15:
        assert costs == (one_cost, one_cost)
    else:
        assert costs == (pytest.approx(one_cost, rel=1e-14),) * 2
    assert_grads_close(net.like(grad.theta).conv_params().as_list(), one_grad.as_list())
    assert len(split.blocks) == -(-n // cap)
    for block in split.blocks:
        assert np.array_equal(block.ws.x, _im2col(data.graphs[block.cols], arch))


@pytest.mark.parametrize("name", sorted(MLP_BASELINES))
def test_mlp_blocks_keep_the_cost_and_gradient(name):
    """Each baseline MLP, over its features in blocks of at most 23 samples,
    gives the one-block cost byte for byte and its gradient to 1e-12; and
    `train_mlp_baseline` trains on a split cut into those blocks."""
    spec = MLP_BASELINES[name]
    rng = np.random.default_rng(13)
    graphs = rng.standard_normal((100, 5, 4)) * 0.5
    labels = rng.standard_normal((100, 2)) * 0.3
    feats = mlp_features_from_graphs(graphs, spec.feature_kind)
    net = Net.of(mlp_init(spec.widths(3), Activation(spec.hidden_activation), seed=2))
    grads = [net.like(np.empty_like(net.theta)) for _ in range(2)]
    one_cost = _Split(net, [feats.T], labels, backward=True).cost_and_grad(grads[0])
    trained = []

    def recorded(split, cfg, test=None):
        trained.append(split)
        return adam_minimize(split, cfg, test)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_BLOCK_SAMPLES", 23)
        mp.setattr(training, "adam_minimize", recorded)
        blocks = network.blocks(len(feats))
        split = _Split(net, [feats[b].T for b in blocks], labels, backward=True)
        assert len(split.blocks) == 5 and split.cost_and_grad(grads[1]) == one_cost
        _, hist = train_mlp_baseline(spec, Dataset(graphs, labels, "train"), AdamConfig(max_iters=1), seed=2)
    assert_grads_close(grads[1].arrays, grads[0].arrays)
    assert [b.cols for b in trained[0].blocks] == blocks
    assert hist[0, 1] == one_cost


def _conv_trainer():
    arch = ConvNetArch(memory_depth=1, kernel_cols=2, kernel_rows=2, n_kernels=2, fc_neurons=3)
    data = tiny_task(arch, n=40)
    params = init_params(arch, 2)

    def train(labels, cfg):
        ds = Dataset(data.graphs, labels, "train")
        trained, hist = train_stage1_adam(params, arch, ds, cfg)
        return mse_cost(trained, arch, ds), hist

    return data.labels, train


def _mlp_trainer():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((40, 3))
    labels = np.tanh(x) @ rng.standard_normal((3, 2))
    layers = mlp_init([3, 5, 2], Activation("tanh"), seed=0)

    def train(labels, cfg):
        trained, hist = train_mlp(layers, x, labels, cfg)
        return mlp_cost_and_grads(trained, x, labels)[0], hist

    return labels, train


@pytest.mark.parametrize("make_trainer", [_conv_trainer, _mlp_trainer], ids=["conv", "mlp"])
def test_adam_loop_stop_rules(make_trainer):
    """The shared Adam loop's divergence check and threshold stop, per model type."""
    labels, train = make_trainer()
    with pytest.raises(TrainingError, match="diverged at iteration 1 "):
        train(np.full_like(labels, np.nan), AdamConfig(max_iters=5))

    _, full = train(labels, AdamConfig(max_iters=60, mse_threshold=0.0))
    threshold = np.nextafter(full[29, 1], np.inf)  # met at iteration 30 at the latest
    cost, hist = train(labels, AdamConfig(max_iters=60, mse_threshold=threshold))
    assert len(hist) <= 30
    assert np.array_equal(hist, full[: len(hist)])
    assert hist[-1, 1] < threshold <= hist[:-1, 1].min(initial=np.inf)
    # the returned parameters are the ones the last history row scored
    assert cost == hist[-1, 1]


def test_conv_net_layout():
    """A conv model's vector holds the conv layer, then the head in the order
    `_fc_normal_equations` assumes; `conv_params` gives back the bytes."""
    arch = ConvNetArch()
    params = with_random_biases(init_params(arch, 1), np.random.default_rng(1))
    net = conv_net(params, arch)
    for back, orig in zip(net.conv_params().as_list(), params.as_list()):
        assert back.shape == orig.shape and back.tobytes() == orig.tobytes()
    head = net.theta[net.conv.size :]
    assert head.size == 18 * 6 + 6 + 6 * 2 + 2  # 128 trainables past the conv layer
    assert np.array_equal(head, np.concatenate([params.fc_weights.ravel(), params.fc_biases,
                                                params.out_weights.ravel(), params.out_biases]))


def test_lm_polish_improves_and_freezes_conv():
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=3, n_kernels=2, fc_neurons=4)
    data = tiny_task(arch, n=120, seed=4)
    params = init_params(arch, 3)
    warm, _ = train_stage1_adam(params, arch, data, AdamConfig(max_iters=150, mse_threshold=0.0))
    cost_before = mse_cost(warm, arch, data)
    warm_bytes = [a.tobytes() for a in warm.as_list()]

    polished, result = train_stage2_lm(warm, arch, data, LmConfig())
    assert [a.tobytes() for a in warm.as_list()] == warm_bytes  # the caller's arrays are not written
    cost_after = mse_cost(polished, arch, data)
    assert cost_after <= cost_before * (1 + 1e-12)
    assert result.converged
    assert result.reason in ("gradient", "stalled", "damping_limit")

    assert np.array_equal(polished.conv_kernels, warm.conv_kernels)
    assert np.array_equal(polished.conv_biases, warm.conv_biases)

    # accepted-step cost trace is monotone non-increasing
    hist = result.history
    assert hist.shape[1] == 5
    accepted = hist[hist[:, 3] == 1]
    assert len(accepted) >= 1
    assert np.all(np.diff(accepted[:, 1]) <= 1e-15)


def test_lm_converges_immediately_at_zero_residual():
    arch = ConvNetArch(memory_depth=1, kernel_cols=2, kernel_rows=2, n_kernels=2, fc_neurons=3)
    rng = np.random.default_rng(6)
    graphs = rng.standard_normal((40, *arch.input_shape)) * 0.3
    params = init_params(arch, 7)
    labels = forward_batch(params, arch, graphs)  # exact fit already
    data = Dataset(graphs, labels, "train")
    polished, result = train_stage2_lm(params, arch, data, LmConfig())
    assert result.converged and result.reason == "gradient"
    assert result.n_iters == 0
    assert np.array_equal(polished.fc_weights, params.fc_weights)


def reference_fc_jacobian(ws):
    """d residual / d theta over the dense layers of a workspace's net after
    a forward pass, shape (2N, |theta|), residual order (n, comp), formed
    entry block by entry block."""
    flat, fc_pre, fc_out = ws.acts[0].T, ws.pres[0].T, ws.acts[1].T
    out_w = ws.net.layers[1].weights
    n, t = fc_pre.shape
    f = flat.shape[1]
    dact = ws.net.layers[0].act.derivative_from_output(fc_pre, fc_out)  # (N, T)
    sens = dact[:, :, None] * out_w[None, :, :]  # (N, T, 2)
    sens = np.moveaxis(sens, 2, 1)  # (N, 2, T)
    j_fc_w = np.einsum("nf,nct->ncft", flat, sens).reshape(n, 2, f * t)
    j_fc_b = sens
    j_out_w = np.zeros((n, 2, t, 2))
    j_out_w[:, 0, :, 0] = fc_out
    j_out_w[:, 1, :, 1] = fc_out
    j_out_w = j_out_w.reshape(n, 2, t * 2)
    j_out_b = np.tile(np.eye(2), (n, 1, 1))
    full = np.concatenate([j_fc_w, j_fc_b, j_out_w, j_out_b], axis=2)
    return full.reshape(2 * n, -1)


def head_of(params, arch):
    """The head's slice of the conv model's vector, as a `Net` of its own."""
    net = conv_net(params, arch)
    return Net(net.theta[net.conv.size :], net.layers)


def head_parts(head, flat, labels):
    """A `Workspace` of the head net over the (N, F) features after its
    forward pass, and the residual there, order (n, comp)."""
    ws = Workspace(head, flat.T)
    return ws, (ws.forward().T - labels).reshape(-1)


def test_reference_jacobian_matches_finite_differences():
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=3, n_kernels=2, fc_neurons=4)
    data = tiny_task(arch, n=7, seed=2)
    params = init_params(arch, 5)
    flat = conv_features(params, arch, data.graphs)
    head = head_of(params, arch)
    theta = head.theta
    jac = reference_fc_jacobian(head_parts(head, flat, data.labels)[0])
    assert jac.shape == (14, theta.size)

    h = 1e-6
    numeric = np.empty_like(jac)
    for k in range(theta.size):
        bump = np.zeros_like(theta)
        bump[k] = h
        numeric[:, k] = (head_parts(head.like(theta + bump), flat, data.labels)[1]
                         - head_parts(head.like(theta - bump), flat, data.labels)[1]) / (2 * h)
    np.testing.assert_allclose(jac, numeric, rtol=1e-6, atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(arch=conv_archs(), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_fc_normal_equations_match_reference_jacobian(arch, n, seed):
    """J'J and J'e assembled from one N-row Gram matrix equal the products of
    the formed Jacobian, for every kernel shape and FC activation. The
    absolute floor is 1e-12 of each product's Cauchy-Schwarz bound, so
    entries that cancel to about zero compare at the products' own scale."""
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    graphs = rng.standard_normal((n, *arch.input_shape))
    labels = rng.standard_normal((n, 2))
    split = _Split(head_of(params, arch), [conv_features(params, arch, graphs).T], labels)
    split.cost()
    (block,) = split.blocks
    resid = block.resid.T.reshape(-1)  # order (n, comp), as the Jacobian's rows

    jac = reference_fc_jacobian(block.ws)
    jtj, jte = _fc_normal_equations(block)
    ref_jtj, ref_jte = jac.T @ jac, jac.T @ resid
    diag = np.diag(ref_jtj).max()
    np.testing.assert_allclose(jtj, ref_jtj, rtol=1e-12, atol=1e-12 * diag)
    np.testing.assert_allclose(jte, ref_jte, rtol=1e-12,
                               atol=1e-12 * np.sqrt(diag) * np.linalg.norm(resid))
    assert np.array_equal(jtj, jtj.T)


def test_fc_normal_equations_reuse_the_block_buffers():
    """The first call keeps its N-long buffers on the block. A second one, after
    another forward pass, allocates no array of N or more elements (its
    tracemalloc peak stays under N floats) and gives the same bytes."""
    n = 20_000
    rng = np.random.default_rng(3)
    split = _Split(Net.of(mlp_init([2, 2, 2], Activation("tanh"), seed=1)), [rng.standard_normal((2, n))],
                   rng.standard_normal((n, 2)))
    (block,) = split.blocks
    peaks, results = [], []
    for _ in range(2):
        split.cost()
        tracemalloc.start()
        try:
            results.append(_fc_normal_equations(block))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] >= 16 * 8 * n  # W, 6 weight and bias columns, 2 output and 1 bias, padded to 16
    assert peaks[1] < 8 * n, peaks
    assert [a.tobytes() for a in results[0]] == [a.tobytes() for a in results[1]]


def reference_lm(head, flat, labels, cfg):
    """The LM rules on the formed Jacobian of a head `Net` over its (N, F)
    features: (accepted, mse) per iteration and the stop reason. The head's
    parameters are not written."""
    n = labels.shape[0]

    def evaluate(theta):
        ws, resid = head_parts(head.like(theta), flat, labels)
        return resid, float(resid @ resid) / (2 * n), reference_fc_jacobian(ws)

    theta = head.theta
    resid, mse, jac = evaluate(theta)
    mu = cfg.mu_init
    rows = []
    for _ in range(cfg.max_iters):
        grad = jac.T @ resid
        if np.max(np.abs(grad)) / n < cfg.grad_tol:
            return rows, "gradient"
        cand = theta - np.linalg.solve(jac.T @ jac + mu * np.eye(theta.size), grad)
        cand_resid, cand_mse, cand_jac = evaluate(cand)
        if cand_mse < mse:
            rel = (mse - cand_mse) / mse
            theta, resid, mse, jac = cand, cand_resid, cand_mse, cand_jac
            mu = max(mu * cfg.mu_down, 1e-14)
            rows.append((1, mse))
            if rel < cfg.min_rel_improvement:
                return rows, "stalled"
        else:
            mu *= cfg.mu_up
            rows.append((0, mse))
            if mu > cfg.mu_max:
                return rows, "damping_limit"
    return rows, "max_iters"


def assert_same_lm_path(result, rows, reason):
    """An `LmResult` takes the reference loop's accepted steps, stop and costs."""
    assert (result.n_iters, result.reason) == (len(rows), reason)
    assert result.converged == (result.reason != "max_iters")
    if rows:
        accepted, mse = np.array(rows).T
        assert np.array_equal(result.history[:, 3], accepted)
        np.testing.assert_allclose(result.history[:, 1], mse, rtol=1e-9)


def _warm_start_setup():
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=3, n_kernels=2, fc_neurons=4)
    data = tiny_task(arch, n=120, seed=4)
    warm, _ = train_stage1_adam(init_params(arch, 3), arch, data, AdamConfig(max_iters=150, mse_threshold=0.0))
    return warm, arch, data


def _paper_arch_setup():
    arch = ConvNetArch()
    data = tiny_task(arch, n=200, seed=7, label_seed=8)
    warm, _ = train_stage1_adam(init_params(arch, 9), arch, data, AdamConfig(max_iters=100, mse_threshold=0.0))
    return warm, arch, data


def _zero_residual_setup():
    arch = ConvNetArch(memory_depth=1, kernel_cols=2, kernel_rows=2, n_kernels=2, fc_neurons=3)
    graphs = np.random.default_rng(6).standard_normal((40, *arch.input_shape)) * 0.3
    params = init_params(arch, 7)
    return params, arch, Dataset(graphs, forward_batch(params, arch, graphs), "train")


@pytest.mark.parametrize("setup, cfg, reason", [
    (_warm_start_setup, LmConfig(), None),
    (_paper_arch_setup, LmConfig(), None),
    (_zero_residual_setup, LmConfig(), "gradient"),
    (_warm_start_setup, LmConfig(max_iters=2), "max_iters"),
    (_paper_arch_setup, LmConfig(mu_max=0.01, min_rel_improvement=0.0), "damping_limit"),
], ids=["warm_start", "paper_arch", "zero_residual", "max_iters", "damping_limit"])
def test_lm_path_matches_formed_jacobian_loop(setup, cfg, reason):
    """Normal equations from the Gram matrix take LM down the same path as
    the formed Jacobian: the same accepted steps, stop and costs, for each
    stop reason."""
    params, arch, data = setup()
    _, result = train_stage2_lm(params, arch, data, cfg)
    rows, ref_reason = reference_lm(head_of(params, arch), conv_features(params, arch, data.graphs),
                                    data.labels, cfg)
    assert_same_lm_path(result, rows, ref_reason)
    if reason is not None:
        assert result.reason == reason
    if reason == "damping_limit":  # mu 1e-3 -> 1e-2 -> 1e-1 > mu_max: two rejected steps end it
        assert result.history[:, 3].tolist() == [0, 0]


@pytest.mark.parametrize("setup, max_iters", [
    (_warm_start_setup, 3), (_warm_start_setup, 20), (_paper_arch_setup, 7),
], ids=["warm_start-3", "warm_start-20", "paper_arch-7"])
def test_lm_scores_with_the_split_cost(setup, max_iters):
    """LM's cost is `_Split.cost`, the one Adam minimizes: its last accepted
    mse equals, byte for byte, the cost of a split rebuilt at the returned
    parameters (`mse_cost`). The runs end on an accepted step; the warm start
    at 3 and 20 steps and the paper's arch at 7 are inputs on which a residual
    dot product ``e @ e`` rounds otherwise."""
    params, arch, data = setup()
    polished, result = train_stage2_lm(params, arch, data, LmConfig(max_iters=max_iters))
    assert result.history[-1, 3] == 1
    assert result.history[-1, 1] == mse_cost(polished, arch, data)


@pytest.mark.parametrize("max_iters, last_accepted", [(2, 0), (3, 1)])
def test_lm_forms_no_normal_equations_after_its_last_step(monkeypatch, max_iters, last_accepted):
    """J'J and J'e are formed before the loop and after each accepted step
    that has a next iteration, so an accepted step at `max_iters` forms none.
    On the warm start LM alternates accepted and rejected steps: 2 steps end
    on a rejected one (the `max_iters` input above), 3 on an accepted one."""
    params, arch, data = _warm_start_setup()
    calls = []

    def counted(block):
        calls.append(1)
        return _fc_normal_equations(block)

    monkeypatch.setattr(training, "_fc_normal_equations", counted)
    _, result = train_stage2_lm(params, arch, data, LmConfig(max_iters=max_iters))
    accepted = result.history[:, 3]
    assert (result.reason, result.n_iters, accepted[-1]) == ("max_iters", max_iters, last_accepted)
    assert len(calls) == 1 + int(accepted[:-1].sum())


def test_lm_minimize_trains_a_net_with_no_conv_layer():
    """`lm_minimize` runs on any `_Split` of an FC layer and a linear output:
    an rvtdnn-shaped MLP over (D, N) features takes the reference loop's
    path and lowers the cost."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 300))
    labels = np.tanh(x.T @ rng.standard_normal((8, 2))) + 0.05 * rng.standard_normal((300, 2))
    layers = mlp_init([8, 5, 2], Activation("tanh"), seed=2)
    rows, reason = reference_lm(Net.of(layers), x.T, labels, LmConfig())
    split = _Split(Net.of(layers), [x], labels)
    cost_before = split.cost()
    result = lm_minimize(split, LmConfig())
    assert_same_lm_path(result, rows, reason)
    assert result.history[:, 3].sum() >= 1
    assert split.cost() < cost_before


def test_mlp_grads_match_finite_differences():
    layers = mlp_init([3, 4, 2], Activation("tanh"), seed=8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 3))
    labels = rng.standard_normal((30, 2))
    cost, grads = mlp_cost_and_grads(layers, x, labels)

    resid = mlp_forward(layers, x) - labels
    assert cost == pytest.approx(np.sum(resid**2) / 60, rel=1e-12)

    h = 1e-6
    for j, layer in enumerate(layers):
        for (r, c) in [(0, 0), (1, 1)]:
            w_plus = layer.weights.copy()
            w_plus[r, c] += h
            w_minus = layer.weights.copy()
            w_minus[r, c] -= h
            lp = list(layers)
            lp[j] = type(layer)(w_plus, layer.biases, layer.act)
            lm = list(layers)
            lm[j] = type(layer)(w_minus, layer.biases, layer.act)
            cp, _ = mlp_cost_and_grads(lp, x, labels)
            cm, _ = mlp_cost_and_grads(lm, x, labels)
            assert grads[j][0][r, c] == pytest.approx((cp - cm) / (2 * h), rel=1e-5)


def test_train_mlp_adam_descends():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((100, 3))
    w_true = rng.standard_normal((3, 2))
    labels = np.tanh(x) @ w_true
    layers = mlp_init([3, 5, 2], Activation("tanh"), seed=0)
    trained, hist = train_mlp(layers, x, labels, AdamConfig(max_iters=400, mse_threshold=0.0))
    assert hist[-1, 1] < hist[0, 1] * 0.2
    # returned layers sit one update past the last history row
    final, _ = mlp_cost_and_grads(trained, x, labels)
    assert final < hist[0, 1] * 0.2

