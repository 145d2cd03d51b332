"""Tests for the Adam stage, the LM polish, and their shared plumbing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padpd.dataset import Dataset, build_dataset
from padpd.network import (
    _im2col,
    Activation,
    ConvNetArch,
    ConvNetParams,
    conv_head,
    forward_batch,
    init_params,
    mlp_forward,
    mlp_forward_parts,
    mlp_init,
)
from padpd.signals import ComplexSeq
from padpd.training import (
    AdamConfig,
    _cost_and_grads,
    _fc_normal_equations,
    LmConfig,
    TrainingError,
    adam_init,
    adam_minimize,
    adam_step,
    backprop_grads,
    mlp_cost_and_grads,
    mse_cost,
    pack_fc,
    train_mlp_adam,
    train_stage1_adam,
    train_stage2_lm,
    unpack_fc,
    write_history_csv,
)
from test_network import conv_archs, with_random_biases


def tiny_task(arch, n=60, seed=0, label_seed=1):
    """Random graphs with labels from a slightly perturbed random net."""
    rng = np.random.default_rng(seed)
    graphs = rng.standard_normal((n, *arch.input_shape)) * 0.4
    teacher = init_params(arch, label_seed)
    labels = forward_batch(teacher, arch, graphs)
    labels = labels + 0.01 * rng.standard_normal(labels.shape)
    return Dataset(graphs, labels, "train")


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
    cost, grads = _cost_and_grads(params, arch, _im2col(graphs, arch), labels.T)
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
    values = [np.array([1.0, -2.0])]
    state = adam_init(values)

    m = np.zeros(2)
    v = np.zeros(2)
    ref = values[0].copy()
    for k in range(1, 4):
        grad = np.array([0.5, -1.5]) * k
        m = cfg.beta1 * m + (1 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1 - cfg.beta2) * grad**2
        m_hat = m / (1 - cfg.beta1**k)
        v_hat = v / (1 - cfg.beta2**k)
        ref = ref - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        values = adam_step(values, [np.array([0.5, -1.5]) * k], state, cfg)
    assert np.allclose(values[0], ref, rtol=1e-12)
    assert state.step == 3


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
    """Stage 1 trains on contiguous copies of the kernel windows; driving the
    same Adam loop with `backprop_grads`/`mse_cost`, which use the strided
    view, must give the same bytes."""
    arch = ConvNetArch(conv_activation=Activation("sigmoid"))
    train, test = tiny_task(arch, n=70, seed=4), tiny_task(arch, n=30, seed=5)
    params = init_params(arch, 3)
    cfg = AdamConfig(max_iters=6, mse_threshold=0.0)
    trained, hist = train_stage1_adam(params, arch, train, cfg, test)

    def cost_and_grads(values):
        p = ConvNetParams.from_list(values)
        return mse_cost(p, arch, train), backprop_grads(p, arch, train).as_list()

    ref, ref_hist = adam_minimize(params.as_list(), cost_and_grads, cfg,
                                  lambda values: mse_cost(ConvNetParams.from_list(values), arch, test))
    assert hist.shape == (6, 3) and np.array_equal(hist, ref_hist)
    for got, want in zip(trained.as_list(), ref):
        assert np.array_equal(got, want)


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
        trained, hist = train_mlp_adam(layers, x, labels, cfg)
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


def test_pack_unpack_roundtrip():
    arch = ConvNetArch()
    params = init_params(arch, 1)
    theta = pack_fc(params)
    assert theta.size == 18 * 6 + 6 + 6 * 2 + 2  # 128 trainables past the conv layer
    fc_w, fc_b, out_w, out_b = unpack_fc(theta, arch)
    assert np.array_equal(fc_w, params.fc_weights)
    assert np.array_equal(fc_b, params.fc_biases)
    assert np.array_equal(out_w, params.out_weights)
    assert np.array_equal(out_b, params.out_biases)
    with pytest.raises(ValueError):
        unpack_fc(theta[:-1], arch)


def test_lm_polish_improves_and_freezes_conv():
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=3, n_kernels=2, fc_neurons=4)
    data = tiny_task(arch, n=120, seed=4)
    params = init_params(arch, 3)
    warm, _ = train_stage1_adam(params, arch, data, AdamConfig(max_iters=150, mse_threshold=0.0))
    cost_before = mse_cost(warm, arch, data)

    polished, result = train_stage2_lm(warm, arch, data, LmConfig())
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


def reference_fc_jacobian(arch, flat, fc_pre, fc_out, out_w):
    """d residual / d theta, shape (2N, |theta|), residual order (n, comp),
    formed entry block by entry block."""
    n, t = fc_pre.shape
    f = flat.shape[1]
    dact = arch.fc_activation.derivative_from_output(fc_pre, fc_out)  # (N, T)
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


def head_parts(theta, arch, flat, labels):
    """The head residual (order (n, comp)) at ``theta`` and the reference
    Jacobian's inputs, (N, ·) views of the feature-major head parts."""
    fc_w, fc_b, out_w, out_b = unpack_fc(theta, arch)
    pres, acts = mlp_forward_parts(conv_head(arch, fc_w, fc_b, out_w, out_b), flat.T)
    return (acts[-1].T - labels).reshape(-1), pres[0].T, acts[1].T, out_w


def test_reference_jacobian_matches_finite_differences():
    arch = ConvNetArch(memory_depth=2, kernel_cols=2, kernel_rows=3, n_kernels=2, fc_neurons=4)
    data = tiny_task(arch, n=7, seed=2)
    params = init_params(arch, 5)
    flat = forward_batch(params, arch, data.graphs, features=True)
    theta = pack_fc(params)
    _, fc_pre, fc_out, out_w = head_parts(theta, arch, flat, data.labels)
    jac = reference_fc_jacobian(arch, flat, fc_pre, fc_out, out_w)
    assert jac.shape == (14, theta.size)

    h = 1e-6
    numeric = np.empty_like(jac)
    for k in range(theta.size):
        bump = np.zeros_like(theta)
        bump[k] = h
        numeric[:, k] = (head_parts(theta + bump, arch, flat, data.labels)[0]
                         - head_parts(theta - bump, arch, flat, data.labels)[0]) / (2 * h)
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
    flat = forward_batch(params, arch, graphs, features=True)
    resid, fc_pre, fc_out, out_w = head_parts(pack_fc(params), arch, flat, labels)

    jtj, jte = _fc_normal_equations(arch, flat, fc_pre, fc_out, out_w, resid)
    jac = reference_fc_jacobian(arch, flat, fc_pre, fc_out, out_w)
    ref_jtj, ref_jte = jac.T @ jac, jac.T @ resid
    diag = np.diag(ref_jtj).max()
    np.testing.assert_allclose(jtj, ref_jtj, rtol=1e-12, atol=1e-12 * diag)
    np.testing.assert_allclose(jte, ref_jte, rtol=1e-12,
                               atol=1e-12 * np.sqrt(diag) * np.linalg.norm(resid))
    assert np.array_equal(jtj, jtj.T)


def reference_lm(params, arch, data, cfg):
    """The LM polish's rules on the formed Jacobian: (accepted, mse) per
    iteration and the stop reason."""
    flat = forward_batch(params, arch, data.graphs, features=True)
    n = data.labels.shape[0]

    def evaluate(theta):
        resid, fc_pre, fc_out, out_w = head_parts(theta, arch, flat, data.labels)
        return resid, float(resid @ resid) / (2 * n), reference_fc_jacobian(arch, flat, fc_pre, fc_out, out_w)

    theta = pack_fc(params)
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


@pytest.mark.parametrize("setup", [_warm_start_setup, _paper_arch_setup, _zero_residual_setup],
                         ids=["warm_start", "paper_arch", "zero_residual"])
def test_lm_path_matches_formed_jacobian_loop(setup):
    """Normal equations from the Gram matrix take LM down the same path as
    the formed Jacobian: the same accepted steps, stop and costs."""
    params, arch, data = setup()
    _, result = train_stage2_lm(params, arch, data, LmConfig())
    rows, reason = reference_lm(params, arch, data, LmConfig())
    assert (result.n_iters, result.reason) == (len(rows), reason)
    if rows:
        accepted, mse = np.array(rows).T
        assert np.array_equal(result.history[:, 3], accepted)
        np.testing.assert_allclose(result.history[:, 1], mse, rtol=1e-9)


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
    trained, hist = train_mlp_adam(layers, x, labels, AdamConfig(max_iters=400, mse_threshold=0.0))
    assert hist[-1, 1] < hist[0, 1] * 0.2
    # returned layers sit one update past the last history row
    final, _ = mlp_cost_and_grads(trained, x, labels)
    assert final < hist[0, 1] * 0.2


def test_write_history_csv(tmp_path):
    hist = np.array([[1, 0.5], [2, 0.25]])
    path = tmp_path / "h.csv"
    write_history_csv(hist, path, comment="stage 1")
    lines = path.read_text().splitlines()
    assert lines[0] == "# stage 1"
    assert lines[1] == "iter,mse_train"
    assert lines[2].startswith("1,")

    hist3 = np.array([[1, 0.5, 0.6]])
    write_history_csv(hist3, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,mse_train,mse_test"
