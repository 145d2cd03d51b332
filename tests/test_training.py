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
from padpd.pa import ImpairmentConfig, default_pa, transmit_chain
from padpd.signals import OfdmConfig, generate_ofdm
from padpd.training import (
    AdamConfig,
    _fc_jtj,
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
from test_network import closed_form_derivative, conv_archs, conv_features, with_random_biases


F32 = np.float32  # the dtype of Adam's passes


def mlp_cost_and_grads(layers, x, labels):
    """MSE cost and per-layer (dW, db) of a plain MLP over x (N, D)."""
    net = Net.of(layers)
    grad = net.like(np.empty_like(net.theta))
    cost = _Split(net, [x.T], labels, backward=True).cost_and_grad(grad)
    return cost, [(g.weights, g.biases) for g in grad.layers]


def train_mlp(layers, x, labels, cfg):
    """`adam_minimize` over every weight and bias of an MLP over x (N, D), as
    `train_mlp_baseline` runs it on a baseline's features: float32 passes over
    float64 master weights, which it returns."""
    net = Net.of(layers)
    split = _Split(training._pass_net(net), [x.astype(F32).T], labels, backward=True)
    return net.layers, adam_minimize(net.theta, split, cfg)


def mlp_pass_cost(layers, x, labels):
    """The cost of Adam's float32 pass over x (N, D) at the given layers."""
    return _Split(training._pass_net(Net.of(layers)), [x.astype(F32).T], labels).cost()


def conv_pass_cost(params, arch, data):
    """The cost of Adam's float32 pass over a dataset at the given parameters."""
    return training._conv_split(training._pass_net(conv_net(params, arch)), data).cost()


def tiny_task(arch, n=60, seed=0, label_seed=1):
    """Random graphs with labels from a slightly perturbed random net."""
    rng = np.random.default_rng(seed)
    graphs = rng.standard_normal((n, *arch.input_shape)) * 0.4
    teacher = init_params(arch, label_seed)
    labels = forward_batch(teacher, arch, graphs)
    labels = labels + 0.01 * rng.standard_normal(labels.shape)
    return Dataset(graphs, labels)


# The list-based training loop that the flat-vector loop replaced, kept as
# its reference: Adam over one array per layer parameter, with the cost and
# gradients of allocating forward and backward passes, and the parameters
# rebuilt from the arrays at every call. It runs at the trainer's precision:
# float64 master values and moments, float32 passes over float32 copies of
# them, and float32 gradients cast to float64 for each update. Every float
# operation is the one the flat-vector loop makes, on the same operands, so
# the two agree bit for bit.

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
        delta = delta * closed_form_derivative(layers[j].act, pres[j])
        grads[j] = (acts[j] @ delta.T, delta.sum(axis=1))
        if j:
            delta = layers[j].weights @ delta
    return grads, delta


def ref_conv_forward(values, arch, cols):
    """The forward pass at ``values``, the conv model's parameter arrays in
    `ConvNetParams` field order, in their dtype."""
    ker, ker_b, fc_w, fc_b, out_w, out_b = values
    pre = np.column_stack([ker.reshape(ker.shape[0], -1), ker_b]) @ cols
    maps = arch.conv_activation(pre).reshape(arch.n_flat_features, -1)
    head = [MlpLayer(fc_w, fc_b, arch.fc_activation), MlpLayer(out_w, out_b, LINEAR)]
    return pre, head, *ref_forward_parts(head, maps)


def ref_conv_cost_and_grads(values, arch, cols, targets):
    pre, head, pres, acts = ref_conv_forward(values, arch, cols)
    cost, d_out = ref_cost_and_output_delta(acts[-1], targets)
    (g_fc, g_out), d_fc = ref_backprop(head, pres, acts, d_out)
    d_pre = (head[0].weights @ d_fc).reshape(arch.n_kernels, -1)
    d_pre *= closed_form_derivative(arch.conv_activation, pre)
    g_conv = d_pre @ cols.T
    return cost, [g_conv[:, :-1].reshape(values[0].shape), g_conv[:, -1], *g_fc, *g_out]


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
    """Adam over the float64 ``values``; ``cost_and_grads`` and ``test_cost``
    get their float32 copies."""
    ms, vs = [np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values]
    history = []
    for it in range(1, cfg.max_iters + 1):
        passes = [a.astype(F32) for a in values]
        cost, grads = cost_and_grads(passes)
        if not np.isfinite(cost):
            raise TrainingError(f"Adam diverged at iteration {it} (mse={cost})")
        history.append((it, cost) if test_cost is None else (it, cost, test_cost(passes)))
        if cost < cfg.mse_threshold:
            break
        values = ref_adam_step(values, [g.astype(float) for g in grads], ms, vs, it, cfg)
    return values, np.asarray(history)


def ref_train_stage1(params, arch, train, cfg, test=None):
    train_cols, train_targets = _im2col(train.graphs, arch, F32), train.labels.astype(F32).T
    if test is not None:
        test_cols, test_targets = _im2col(test.graphs, arch, F32), test.labels.astype(F32).T

    def cost_and_grads(values):
        return ref_conv_cost_and_grads(values, arch, train_cols, train_targets)

    def test_cost(values):
        outputs = ref_conv_forward(values, arch, test_cols)[3][-1]
        return ref_cost_and_output_delta(outputs, test_targets)[0]

    values, history = ref_adam_minimize([a.copy() for a in params.as_list()], cost_and_grads, cfg,
                                        None if test is None else test_cost)
    return ConvNetParams(*values), history


def ref_train_mlp(layers, x, labels, cfg):
    x_t, targets = x.astype(F32).T, labels.astype(F32).T

    def rebuild(values):
        return [MlpLayer(values[2 * j], values[2 * j + 1], layer.act) for j, layer in enumerate(layers)]

    def cost_and_grads(values):
        pres, acts = ref_forward_parts(rebuild(values), x_t)
        cost, d_out = ref_cost_and_output_delta(acts[-1], targets)
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
    d_fc = (d_out @ params.out_weights.T) * closed_form_derivative(arch.fc_activation, fc_pre)
    d_flat = (d_fc @ params.fc_weights.T).reshape(n, l_k, b * c).transpose(0, 2, 1).reshape(-1, l_k)
    g_conv = (d_flat * closed_form_derivative(arch.conv_activation, pre)).T @ cols
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
    data = Dataset(graphs, labels)
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
                cost = mse_cost(ConvNetParams(*bumped), arch, data)
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
    the list-based reference loop with the path of `backprop_grads` and
    `mse_cost` at Adam's precision, which builds a net and a split afresh at
    every call, must give the same bytes: `conv_net` over the parameters, its
    float32 copy (`_pass_net`), and that copy's `_conv_split`."""
    arch = ConvNetArch(conv_activation=Activation("sigmoid"))
    train, test = tiny_task(arch, n=70, seed=4), tiny_task(arch, n=30, seed=5)
    params = init_params(arch, 3)
    cfg = AdamConfig(max_iters=6, mse_threshold=0.0)
    trained, hist = train_stage1_adam(params, arch, train, cfg, test)

    def pass_split(values, data, backward=False):
        return training._conv_split(training._pass_net(conv_net(ConvNetParams(*values), arch)), data, backward)

    def cost_and_grads(values):
        split = pass_split(values, train, backward=True)
        grad = split.net.like(np.empty_like(split.net.theta))
        return split.cost_and_grad(grad), grad.conv_params().as_list()

    ref, ref_hist = ref_adam_minimize(params.as_list(), cost_and_grads, cfg,
                                      lambda values: pass_split(values, test).cost())
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
    trained, hist = train_mlp_baseline(spec, Dataset(graphs, labels), cfg, seed=1)
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
    train = Dataset(rng.standard_normal((n, *arch.input_shape)), rng.standard_normal((n, 2)))
    test = (Dataset(rng.standard_normal((n_test, *arch.input_shape)), rng.standard_normal((n_test, 2)))
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
    train = Dataset(rng.standard_normal((n, *arch.input_shape)), rng.standard_normal((n, 2)))
    test = Dataset(rng.standard_normal((n_test, *arch.input_shape)), rng.standard_normal((n_test, 2)))
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
    layers = mlp_init([*widths, out], Activation(kind), seed=seed % 1000)
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
    train = Dataset(rng.standard_normal((8400, *arch.input_shape)), rng.standard_normal((8400, 2)))
    test = Dataset(rng.standard_normal((5600, *arch.input_shape)), rng.standard_normal((5600, 2)))
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
    """An iteration's transient allocations peak at no more than 26 kB on an
    8400/5600 split (24.1 kB measured with float32 passes, numpy 2.4: numpy's
    temporaries for the ufuncs that read a block's columns of the split-wide
    targets and squares; 46.5 kB with float64 passes, and about 7.7 MB in the
    list-based loop), and neither that peak nor the memory held between
    iterations grows with the iteration count."""
    short_peaks, _ = _stage1_transient_peaks(4)
    peaks, starts = _stage1_transient_peaks(16)
    assert max(peaks) <= 26_000, peaks
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
    data = Dataset(rng.standard_normal((n, *arch.input_shape)), rng.standard_normal((n, 2)))
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
    gives the one-block cost byte for byte, in float64 and in Adam's float32,
    and its gradient to 1e-12 in float64 (1e-5 in float32, whose sums over
    the samples round about 1e-7 apart); and `train_mlp_baseline` trains on a
    float32 split cut into those blocks, whose first cost is the one-block
    float32 cost."""
    spec = MLP_BASELINES[name]
    rng = np.random.default_rng(13)
    graphs = rng.standard_normal((100, 5, 4)) * 0.5
    labels = rng.standard_normal((100, 2)) * 0.3
    net64 = Net.of(mlp_init(spec.widths(3), Activation(spec.hidden_activation), seed=2))
    trained = []

    def recorded(theta, split, cfg, test=None):
        trained.append(split)
        return adam_minimize(theta, split, cfg, test)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_BLOCK_SAMPLES", 23)
        mp.setattr(training, "adam_minimize", recorded)
        blocks = network.blocks(len(graphs))
        for net, tol in ((net64, 1e-12), (training._pass_net(net64), 1e-5)):
            feats = mlp_features_from_graphs(graphs, spec.feature_kind, net.theta.dtype)
            grads = [net.like(np.empty_like(net.theta)) for _ in range(2)]
            one_cost = _Split(net, [feats.T], labels, backward=True).cost_and_grad(grads[0])
            split = _Split(net, [feats[b].T for b in blocks], labels, backward=True)
            assert len(split.blocks) == 5 and split.cost_and_grad(grads[1]) == one_cost
            for g, w in zip(grads[1].arrays, grads[0].arrays):
                np.testing.assert_allclose(g, w, rtol=tol, atol=tol * np.abs(w).max())
        _, hist = train_mlp_baseline(spec, Dataset(graphs, labels), AdamConfig(max_iters=1), seed=2)
    assert [b.cols for b in trained[0].blocks] == blocks
    assert trained[0].net.theta.dtype == F32
    assert hist[0, 1] == one_cost


def test_float32_net_layers_stay_views_of_theta():
    """`Activation` and `MlpLayer` keep float32 arrays float32, uncopied. So
    every layer array of a float32 `Net.like`, a conv model's or an MLP's,
    shares memory with its vector; and one `adam_minimize` step, which writes
    the float64 master vector into it, changes the layers' forward output. A
    `Workspace` takes no input of another dtype than its net's."""
    v = np.linspace(-2, 2, 7, dtype=F32)
    assert all(Activation(kind)(v).dtype == F32 for kind in ACTIVATION_KINDS)
    w, b = np.ones((3, 2), F32), np.zeros(2, F32)
    layer = MlpLayer(w, b)
    assert layer.weights is w and layer.biases is b

    arch = ConvNetArch()
    data = tiny_task(arch, n=50)
    rng = np.random.default_rng(3)
    for net, x in ((conv_net(init_params(arch, 1), arch), _im2col(data.graphs, arch, F32)),
                   (Net.of(mlp_init([6, 5, 2], Activation("sigmoid"), seed=1)), rng.standard_normal((6, 50), F32))):
        passes = training._pass_net(net)
        assert passes.theta.dtype == F32 and len(passes.arrays) == len(net.arrays)
        assert all(a.dtype == F32 and np.shares_memory(a, passes.theta) for a in passes.arrays)
        before = Workspace(passes, x).forward().copy()
        adam_minimize(net.theta, _Split(passes, [x], data.labels, backward=True),
                      AdamConfig(max_iters=2, mse_threshold=0.0))
        assert passes.theta.tobytes() == net.theta.astype(F32).tobytes()
        after = Workspace(passes, x).forward()
        assert after.dtype == F32 and not np.array_equal(before, after)
        with pytest.raises(ValueError, match="the input is float64 but the net is float32"):
            Workspace(passes, x.astype(float))


def _relative_gap(got, want):
    """The largest |got - want| over the largest |want|."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.fixture(scope="module")
def pa_dataset():
    """The criterion-10 config's 480/320 split of the default PA's output."""
    x = generate_ofdm(OfdmConfig(n_symbols=6))
    return build_dataset(x, transmit_chain(default_pa(), x, ImpairmentConfig.case(1)), 3, 800, 0)


def test_float32_stage1_tracks_float64(pa_dataset):
    """300 Adam steps on the paper's arch over a PA dataset: the float32
    passes' history is within 1e-6 relative of float64 passes' (2.7e-7
    measured), and the trained parameters within 1e-6 of the largest (2.1e-8
    measured)."""
    arch, (train, test) = ConvNetArch(), pa_dataset
    cfg = AdamConfig(max_iters=300, mse_threshold=0.0)
    trained, hist = train_stage1_adam(init_params(arch, 0), arch, train, cfg, test)
    net = conv_net(init_params(arch, 0), arch)
    ref_hist = adam_minimize(net.theta, training._conv_split(net, train, backward=True), cfg,
                             training._conv_split(net, test))
    assert hist.shape == ref_hist.shape == (300, 3)
    np.testing.assert_allclose(hist, ref_hist, rtol=1e-6, atol=0)
    assert _relative_gap(conv_net(trained, arch).theta, net.theta) < 1e-6


@pytest.mark.parametrize("name", sorted(MLP_BASELINES))
def test_float32_mlp_baselines_track_float64(pa_dataset, name):
    """40 Adam steps of each baseline over a PA dataset: the float32 passes'
    history is within 1e-6 relative of float64 passes' (2.0e-7 measured), and
    the weights within 1e-6 of the largest (1.2e-7 measured)."""
    spec, (train, _) = MLP_BASELINES[name], pa_dataset
    cfg = AdamConfig(max_iters=40, mse_threshold=0.0)
    layers, hist = train_mlp_baseline(spec, train, cfg, seed=0)
    net = Net.of(mlp_init(spec.widths(3), Activation(spec.hidden_activation), seed=0))
    feats = mlp_features_from_graphs(train.graphs, spec.feature_kind)
    ref_hist = adam_minimize(net.theta, _Split(net, [feats.T], train.labels, backward=True), cfg)
    assert hist.shape == ref_hist.shape == (40, 2)
    np.testing.assert_allclose(hist, ref_hist, rtol=1e-6, atol=0)
    assert all(a.dtype == np.float64 for layer in layers for a in (layer.weights, layer.biases))
    assert _relative_gap(Net.of(layers).theta, net.theta) < 1e-6


def test_only_adam_passes_run_in_float32(monkeypatch):
    """Every `Workspace` that `mse_cost`, `backprop_grads`, `forward_batch`
    and the LM polish fill has a float64 input, net and buffers, and LM's
    J'J is float64; stage 1's workspaces are float32."""
    seen, normal_equations = [], []
    real_forward, real_jtj = Workspace.forward, training._fc_jtj

    def recorded_forward(ws):
        conv = [] if ws.net.conv is None else [ws.conv_pre, ws.conv_out]
        seen.append({a.dtype for a in (ws.x, ws.net.theta, *conv, *ws.pres, *ws.acts)})
        return real_forward(ws)

    def recorded_jtj(block):
        out = real_jtj(block)
        normal_equations.append({a.dtype for a in (*block.lm, out, block.resid, block.ws.x, block.deltas[-1])})
        return out

    monkeypatch.setattr(Workspace, "forward", recorded_forward)
    monkeypatch.setattr(training, "_fc_jtj", recorded_jtj)
    arch = ConvNetArch()
    data = tiny_task(arch, n=60)
    params = init_params(arch, 1)
    for run in (lambda: mse_cost(params, arch, data), lambda: backprop_grads(params, arch, data),
                lambda: forward_batch(params, arch, data.graphs),
                lambda: train_stage2_lm(params, arch, data, LmConfig(max_iters=3))):
        seen.clear()
        run()
        assert seen and all(dtypes == {np.dtype(np.float64)} for dtypes in seen)
    assert normal_equations and all(dtypes == {np.dtype(np.float64)} for dtypes in normal_equations)
    seen.clear()
    train_stage1_adam(params, arch, data, AdamConfig(max_iters=2, mse_threshold=0.0))
    assert seen and all(dtypes == {np.dtype(F32)} for dtypes in seen)


def _conv_trainer():
    arch = ConvNetArch(memory_depth=1, kernel_cols=2, kernel_rows=2, n_kernels=2, fc_neurons=3)
    data = tiny_task(arch, n=40)
    params = init_params(arch, 2)

    def train(labels, cfg):
        ds = Dataset(data.graphs, labels)
        trained, hist = train_stage1_adam(params, arch, ds, cfg)
        return conv_pass_cost(trained, arch, ds), hist

    return data.labels, train


def _mlp_trainer():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((40, 3))
    labels = np.tanh(x) @ rng.standard_normal((3, 2))
    layers = mlp_init([3, 5, 2], Activation("tanh"), seed=0)

    def train(labels, cfg):
        trained, hist = train_mlp(layers, x, labels, cfg)
        return mlp_pass_cost(trained, x, labels), hist

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
    # the returned parameters are the ones the last history row scored: Adam's
    # float32 pass at them gives its cost byte for byte
    assert cost == hist[-1, 1]


def test_conv_net_layout():
    """A conv model's vector holds the conv layer, then the head in the order
    `_fc_jtj` assumes; `conv_params` gives back the bytes."""
    arch = ConvNetArch()
    params = with_random_biases(init_params(arch, 1), np.random.default_rng(1))
    net = conv_net(params, arch)
    for back, orig in zip(net.conv_params().as_list(), params.as_list()):
        assert back.shape == orig.shape and back.tobytes() == orig.tobytes()
    head = net.head.theta
    assert np.shares_memory(head, net.theta)  # a view: the head's updates reach the model's vector
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
    data = Dataset(graphs, labels)
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
    dact = closed_form_derivative(ws.net.layers[0].act, fc_pre)  # (N, T)
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
    return conv_net(params, arch).head


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
    """J'J assembled from one N-row Gram matrix, and J'e as N times the
    head's backprop gradient, equal the products of the formed Jacobian, for
    every kernel shape and FC activation. The absolute floor is 1e-12 of each
    product's Cauchy-Schwarz bound, so entries that cancel to about zero
    compare at the products' own scale."""
    rng = np.random.default_rng(seed)
    params = with_random_biases(init_params(arch, seed), rng)
    graphs = rng.standard_normal((n, *arch.input_shape))
    labels = rng.standard_normal((n, 2))
    split = _Split(head_of(params, arch), [conv_features(params, arch, graphs).T], labels, backward=True)
    split.cost()
    (block,) = split.blocks
    resid = block.resid.T.reshape(-1).copy()  # order (n, comp), as the Jacobian's rows
    jac = reference_fc_jacobian(block.ws)

    grad = split.net.like(np.empty_like(split.net.theta))
    split.cost_and_grad(grad)
    jtj, jte = _fc_jtj(block), n * grad.theta
    ref_jtj, ref_jte = jac.T @ jac, jac.T @ resid
    diag = np.diag(ref_jtj).max()
    np.testing.assert_allclose(jtj, ref_jtj, rtol=1e-12, atol=1e-12 * diag)
    np.testing.assert_allclose(jte, ref_jte, rtol=1e-12,
                               atol=1e-12 * np.sqrt(diag) * np.linalg.norm(resid))
    assert np.array_equal(jtj, jtj.T)


def test_fc_normal_equations_reuse_the_block_buffers():
    """The first J'J call keeps its N-long buffers, the Gram matrix and J'J
    on the block. A second one, after another forward pass, allocates no
    array of N elements nor a P×P one (its tracemalloc peak stays under P×P
    floats, for the P = 68 parameters), writes J'J into the same array and
    gives the same bytes."""
    n = 20_000
    rng = np.random.default_rng(3)
    split = _Split(Net.of(mlp_init([8, 6, 2], Activation("tanh"), seed=1)), [rng.standard_normal((8, n))],
                   rng.standard_normal((n, 2)))
    (block,) = split.blocks
    peaks, results = [], []
    for _ in range(2):
        split.cost()
        tracemalloc.start()
        try:
            jtj = _fc_jtj(block)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        results.append((jtj, jtj.tobytes()))
    assert peaks[0] >= 64 * 8 * n  # W: 54 weight and bias columns, 6 output and 1 bias, padded to 64
    assert peaks[1] < 8 * 68 * 68, peaks
    assert results[0][0] is results[1][0]
    assert results[0][1] == results[1][1]


def reference_lm(head, flat, labels, cfg):
    """The LM rules on the formed Jacobian of a head `Net` over its (N, F)
    features: (accepted, mse) per iteration and the stop reason. The damping
    starts at ``mu_init`` * max diag(J'J). A step is kept when the cost drops;
    then mu is scaled by max(1/3, 1 - (2 rho - 1)^3), with rho the cost's drop
    over the linear model's, 1/2 |e|^2 - 1/2 |e - J delta|^2, and nu = 2.
    Otherwise mu is scaled by nu, and nu doubles. Three small accepted steps
    in a row stop it. The head's parameters are not written."""
    n = labels.shape[0]

    def evaluate(theta):
        ws, resid = head_parts(head.like(theta), flat, labels)
        return resid, float(resid @ resid) / (2 * n), reference_fc_jacobian(ws)

    theta = head.theta
    resid, mse, jac = evaluate(theta)
    mu, nu, small = cfg.mu_init * np.max(np.diag(jac.T @ jac)), 2.0, 0
    rows = []
    for _ in range(cfg.max_iters):
        grad = jac.T @ resid
        if np.max(np.abs(grad)) / n < cfg.grad_tol:
            return rows, "gradient"
        delta = np.linalg.solve(jac.T @ jac + mu * np.eye(theta.size), grad)
        cand_resid, cand_mse, cand_jac = evaluate(theta - delta)
        if cand_mse < mse:
            linear = resid - jac @ delta
            rho = n * (mse - cand_mse) / (0.5 * (resid @ resid) - 0.5 * (linear @ linear))
            small = small + 1 if (mse - cand_mse) / mse < cfg.min_rel_improvement else 0
            theta, resid, mse, jac = theta - delta, cand_resid, cand_mse, cand_jac
            mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
            rows.append((1, mse))
            if small == 3:
                return rows, "stalled"
        else:
            mu, nu = mu * nu, 2 * nu
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
    return params, arch, Dataset(graphs, forward_batch(params, arch, graphs))


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
    if reason == "damping_limit":  # mu starts above mu_max; an accepted step, then a rejected one ends it
        assert result.history[:, 3].tolist() == [1, 0]


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
    """J'J is formed, and J'e taken from the gradient, before the loop and
    after each accepted step that has a next iteration, so an accepted step
    at `max_iters` forms none.
    On the warm start LM's first steps are accepted, rejected, accepted: 2
    steps end on a rejected one (the `max_iters` input above), 3 on an
    accepted one."""
    params, arch, data = _warm_start_setup()
    calls = []

    def counted(block):
        calls.append(1)
        return _fc_jtj(block)

    monkeypatch.setattr(training, "_fc_jtj", counted)
    _, result = train_stage2_lm(params, arch, data, LmConfig(max_iters=max_iters))
    accepted = result.history[:, 3]
    assert (result.reason, result.n_iters, accepted[-1]) == ("max_iters", max_iters, last_accepted)
    assert len(calls) == 1 + int(accepted[:-1].sum())


def test_predicted_drop_is_the_linear_models_drop():
    """LM's predicted drop, 1/2 delta'(mu delta + J'e), equals the drop of
    1/2 |e|^2 under the linear model, 1/2 |e|^2 - 1/2 |e - J delta|^2, for
    the damped step delta, on the formed Jacobian."""
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=3, n_kernels=2, fc_neurons=4)
    rng = np.random.default_rng(12)
    params = with_random_biases(init_params(arch, 13), rng)
    graphs = rng.standard_normal((50, *arch.input_shape))
    ws, resid = head_parts(head_of(params, arch), conv_features(params, arch, graphs), rng.standard_normal((50, 2)))
    jac = reference_fc_jacobian(ws)
    grad = jac.T @ resid
    for mu in (1e-4, 1e-1, 1e2):
        delta = np.linalg.solve(jac.T @ jac + mu * np.eye(jac.shape[1]), grad)
        linear = resid - jac @ delta
        want = 0.5 * (resid @ resid) - 0.5 * (linear @ linear)
        assert 0.5 * delta @ (mu * delta + grad) == pytest.approx(want, rel=1e-10)


def test_lm_stalls_on_the_third_small_accepted_step_in_a_row(monkeypatch):
    """Two small accepted steps in a row do not stop LM; a large one resets
    the count, a rejected one does not, and the third small one in a row
    stops it as stalled. The split's costs are scripted: each lowers the
    last accepted cost by 0.1 % (small, under the default 0.5 %) but the
    third, by 10 %, and the sixth, which rises."""
    rng = np.random.default_rng(14)
    split = _Split(Net.of(mlp_init([3, 4, 2], Activation("tanh"), seed=1)), [rng.standard_normal((3, 50))],
                   rng.standard_normal((50, 2)), backward=True)
    costs = iter([1.0, 0.999, 0.998, 0.9, 0.8991, 2.0, 0.8982, 0.8973])
    real_cost_and_grad = split.cost_and_grad

    def scripted(grad):
        real_cost_and_grad(grad)  # the passes that J'J and J'e read
        return next(costs)

    monkeypatch.setattr(split, "cost_and_grad", scripted)
    result = lm_minimize(split, LmConfig())
    assert result.reason == "stalled"
    assert result.history[:, 3].tolist() == [1, 1, 1, 1, 0, 1, 1]
    assert result.history[:, 1].tolist() == [0.999, 0.998, 0.9, 0.8991, 0.8991, 0.8982, 0.8973]


def test_lm_minimize_trains_a_net_with_no_conv_layer():
    """`lm_minimize` runs on any `_Split` of an FC layer and a linear output:
    an rvtdnn-shaped MLP over (D, N) features takes the reference loop's
    path and lowers the cost."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 300))
    labels = np.tanh(x.T @ rng.standard_normal((8, 2))) + 0.05 * rng.standard_normal((300, 2))
    layers = mlp_init([8, 5, 2], Activation("tanh"), seed=2)
    rows, reason = reference_lm(Net.of(layers), x.T, labels, LmConfig())
    split = _Split(Net.of(layers), [x], labels, backward=True)
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

