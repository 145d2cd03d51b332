"""Two-stage training: full-batch Adam over everything, then a
Levenberg-Marquardt polish of the fully connected and output layers with the
convolutional front end frozen (the trained kernels act as a fixed filter).

The conv model's dense head is an MLP layer stack, so one backprop
(`mlp_backprop`) and one Adam loop (`adam_minimize`) serve both the conv
model and the MLP baselines; the conv model adds only its kernel gradient.

The cost everywhere is mse = (1/2N) * sum[(I'-I)^2 + (Q'-Q)^2]. Inside,
activations, deltas and targets are feature-major, shape (features, N), as
in `network`; the public functions take (N, features) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .dataset import Dataset
from .network import (
    ConvNetArch,
    ConvNetParams,
    MlpLayer,
    _forward_cols,
    _im2col,
    conv_head,
    forward_batch,
    mlp_forward_parts,
)

__all__ = [
    "AdamConfig",
    "LmConfig",
    "TrainingError",
    "mse_cost",
    "backprop_grads",
    "AdamState",
    "adam_init",
    "adam_step",
    "adam_minimize",
    "train_stage1_adam",
    "train_stage2_lm",
    "LmResult",
    "pack_fc",
    "unpack_fc",
    "mlp_backprop",
    "mlp_cost_and_grads",
    "train_mlp_adam",
    "write_history_csv",
]


class TrainingError(RuntimeError):
    """Raised when an optimizer diverges or its linear solves fail."""


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_iters: int = 200_000
    mse_threshold: float = 1.2e-7

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.mse_threshold >= 0:
            raise ValueError("mse_threshold must be >= 0")


@dataclass(frozen=True)
class LmConfig:
    mu_init: float = 1e-3
    mu_up: float = 10.0
    mu_down: float = 0.1
    max_iters: int = 200
    grad_tol: float = 1e-9
    mu_max: float = 1e12
    min_rel_improvement: float = 5e-3

    def __post_init__(self):
        if not self.mu_init > 0:
            raise ValueError("mu_init must be positive")
        if not self.mu_up > 1.0:
            raise ValueError("mu_up must exceed 1")
        if not 0.0 < self.mu_down < 1.0:
            raise ValueError("mu_down must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def _cost_and_output_delta(outputs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """The MSE cost and its gradient with respect to the (2, N) outputs."""
    n = targets.shape[1]
    resid = outputs - targets
    return float((resid * resid).sum() / (2 * n)), resid / n


def mse_cost(params: ConvNetParams, arch: ConvNetArch, data: Dataset) -> float:
    return _cost_and_output_delta(_forward_cols(params, arch, _im2col(data.graphs, arch)).outputs,
                                  data.labels.T)[0]


def mlp_backprop(layers: list[MlpLayer], pres: list, acts: list, d_out: np.ndarray):
    """Reverse pass over a layer stack, from the cost gradient at its output.

    ``pres``/``acts`` come from `mlp_forward_parts`; ``d_out`` is
    feature-major like them. Returns the per-layer (dW, db) and the cost
    gradient at the first layer's pre-activation; a caller that needs the
    gradient at the stack's input multiplies ``layers[0].weights`` by it
    (the MLPs do not, so they skip that product).
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    delta = d_out
    for j in range(len(layers) - 1, -1, -1):
        delta = delta * layers[j].act.derivative_from_output(pres[j], acts[j + 1])
        grads[j] = (acts[j] @ delta.T, delta.sum(axis=1))
        if j:
            delta = layers[j].weights @ delta
    return grads, delta


def _cost_and_grads(params, arch, cols, targets):
    """Batch MSE and its gradients: head backprop, then the conv layer's.

    ``cols`` are the graphs' `_im2col` columns and ``targets`` the (2, N)
    labels. The gradient at the head's input, ``fc_weights @ d_fc``, is the
    conv layer's (L, B*C*N) delta after a reshape; the kernel and bias
    gradients come from one GEMM, ``d_pre @ cols.T``: the ones row of
    ``cols`` sums ``d_pre`` into the bias gradient.
    """
    parts = _forward_cols(params, arch, cols)
    cost, d_out = _cost_and_output_delta(parts.outputs, targets)
    (g_fc, g_out), d_fc = mlp_backprop(parts.head, parts.pres, parts.acts, d_out)

    d_pre = (params.fc_weights @ d_fc).reshape(arch.n_kernels, -1)
    d_pre *= arch.conv_activation.derivative_from_output(
        parts.pre_maps, parts.acts[0].reshape(arch.n_kernels, -1))
    g_conv = d_pre @ cols.T
    g_ker = g_conv[:, :-1].reshape(params.conv_kernels.shape)
    return cost, ConvNetParams(g_ker, g_conv[:, -1], *g_fc, *g_out)


def backprop_grads(params: ConvNetParams, arch: ConvNetArch, data: Dataset) -> ConvNetParams:
    """Gradient of the MSE cost, shaped like the parameters."""
    return _cost_and_grads(params, arch, _im2col(data.graphs, arch), data.labels.T)[1]


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def adam_init(values: list[np.ndarray]) -> AdamState:
    return AdamState([np.zeros_like(a) for a in values], [np.zeros_like(a) for a in values])


def adam_step(values: list[np.ndarray], grads: list[np.ndarray],
              state: AdamState, cfg: AdamConfig) -> list[np.ndarray]:
    """One Adam update with bias correction; returns the new values."""
    state.step += 1
    k = state.step
    b1c = 1.0 - cfg.beta1**k
    b2c = 1.0 - cfg.beta2**k
    out = []
    for val, grad, m, v in zip(values, grads, state.m, state.v):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * grad * grad
        out.append(val - cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + cfg.epsilon))
    return out


def adam_minimize(values: list[np.ndarray], cost_and_grads, cfg: AdamConfig,
                  test_cost=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Full-batch Adam until mse < threshold or max_iters.

    ``cost_and_grads(values)`` returns the training cost and one gradient per
    array. History rows are (iteration, mse_train), or (iteration, mse_train,
    mse_test) when ``test_cost(values)`` is given. On a threshold stop the
    returned values are the ones whose cost is the last history row.
    """
    state = adam_init(values)
    history = []
    for it in range(1, cfg.max_iters + 1):
        cost, grads = cost_and_grads(values)
        if not np.isfinite(cost):
            raise TrainingError(f"Adam diverged at iteration {it} (mse={cost})")
        history.append((it, cost) if test_cost is None else (it, cost, test_cost(values)))
        if cost < cfg.mse_threshold:
            break
        values = adam_step(values, grads, state, cfg)
    return values, np.asarray(history)


def train_stage1_adam(
    params: ConvNetParams,
    arch: ConvNetArch,
    train: Dataset,
    cfg: AdamConfig,
    test: Dataset | None = None,
) -> tuple[ConvNetParams, np.ndarray]:
    """Stage 1: `adam_minimize` over every conv model parameter.

    Each split's `_im2col` columns are built once up front and every
    iteration reuses them, which gives the same values as
    `backprop_grads`/`mse_cost` without rebuilding them per call.
    """
    params.check_shapes(arch)
    train_cols = _im2col(train.graphs, arch)
    test_cols = None if test is None else _im2col(test.graphs, arch)

    def cost_and_grads(values):
        cost, grads = _cost_and_grads(ConvNetParams.from_list(values), arch, train_cols, train.labels.T)
        return cost, grads.as_list()

    def test_cost(values):
        outputs = _forward_cols(ConvNetParams.from_list(values), arch, test_cols).outputs
        return _cost_and_output_delta(outputs, test.labels.T)[0]

    values, history = adam_minimize([a.copy() for a in params.as_list()], cost_and_grads, cfg,
                                    None if test is None else test_cost)
    return ConvNetParams.from_list(values), history


def pack_fc(params: ConvNetParams) -> np.ndarray:
    """FC + output parameters as one vector (fc_w, fc_b, out_w, out_b)."""
    return np.concatenate([
        params.fc_weights.ravel(),
        params.fc_biases,
        params.out_weights.ravel(),
        params.out_biases,
    ])


def unpack_fc(theta: np.ndarray, arch: ConvNetArch) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    f, t = arch.n_flat_features, arch.fc_neurons
    n_out = 2
    sizes = [f * t, t, t * n_out, n_out]
    if theta.size != sum(sizes):
        raise ValueError(f"theta has {theta.size} entries, expected {sum(sizes)}")
    o = 0
    parts = []
    for size in sizes:
        parts.append(theta[o : o + size])
        o += size
    return (
        parts[0].reshape(f, t),
        parts[1].copy(),
        parts[2].reshape(t, n_out),
        parts[3].copy(),
    )


@dataclass
class LmResult:
    """History rows are (iteration, mse, mu, accepted, grad_norm)."""

    history: np.ndarray
    converged: bool
    reason: str

    @property
    def n_iters(self) -> int:
        return self.history.shape[0]


def _fc_eval(theta, arch, flat, labels):
    """The head residual, order (n, comp), and the (N, T) FC layer parts as
    transposes of the feature-major arrays."""
    fc_w, fc_b, out_w, out_b = unpack_fc(theta, arch)
    head = conv_head(arch, fc_w, fc_b, out_w, out_b)
    (fc_pre, _), (_, fc_out, outputs) = mlp_forward_parts(head, flat.T)
    resid = (outputs.T - labels).reshape(-1)  # component index fastest
    return resid, fc_pre.T, fc_out.T, out_w


def _fc_normal_equations(arch, flat, fc_pre, fc_out, out_w, resid):
    """J'J and J'e of the head residual (order (n, comp)), without forming J.

    Row n's I and Q rows of J share the factor ``[flat_n, 1] ⊗ fc_act'_n`` over
    the FC weights and biases, scaled by ``out_w[:, c]``; over component c's
    output weights and bias they hold ``[fc_out_n, 1]``. So J'J is the Gram
    matrix of the N-row ``W = [[flat, 1] ⊗ fc_act' | fc_out | 1]``, weighted
    by ``out_w``, and J'e is the head's backprop gradient.

    ``flat``, ``fc_pre`` and ``fc_out`` are (N, ·); the training path passes
    transposes of feature-major arrays, so ``flat.T`` and ``dact.T`` are
    contiguous as they come. W is built transposed, one contiguous N-long row
    per column. It gets zero columns up to a multiple of 8: OpenBLAS then
    gives the Gram matrix the same bytes at any thread count, which it does
    not for some other widths.
    """
    n, t = fc_pre.shape
    f = flat.shape[1]
    m = (f + 1) * t  # FC weights and biases, in `pack_fc` order
    e = resid.reshape(n, 2)
    dact = arch.fc_activation.derivative_from_output(fc_pre, fc_out)

    w_t = np.zeros((-(-(m + t + 1) // 8) * 8, n))
    fc_rows = w_t[:m].reshape(f + 1, t, n)
    np.multiply(flat.T[:, None, :], dact.T[None, :, :], out=fc_rows[:f])
    fc_rows[f] = dact.T
    w_t[m : m + t] = fc_out.T
    w_t[m + t] = 1.0
    g = w_t @ w_t.T

    jtj = np.empty((m + 2 * (t + 1),) * 2)
    jtj[:m, :m] = g[:m, :m] * np.tile(out_w @ out_w.T, (f + 1, f + 1))
    cross = (g[:m, m : m + t + 1, None] * np.tile(out_w, (f + 1, 1))[:, None, :]).reshape(m, -1)
    jtj[:m, m:] = cross
    jtj[m:, :m] = cross.T
    jtj[m:, m:] = np.kron(g[m : m + t + 1, m : m + t + 1], np.eye(2))

    delta = dact * (e @ out_w.T)
    jte = np.concatenate([(flat.T @ delta).ravel(), delta.sum(axis=0),
                          (w_t[m : m + t + 1] @ e).ravel()])
    return jtj, jte


def train_stage2_lm(
    params: ConvNetParams,
    arch: ConvNetArch,
    train: Dataset,
    cfg: LmConfig,
) -> tuple[ConvNetParams, LmResult]:
    """Damped Gauss-Newton over the FC and output layers only.

    Steps solve (J'J + mu I) delta = J'e; a step is kept only if the cost
    drops (then mu shrinks), otherwise mu grows and the step is retried.
    The frozen conv features are computed once up front.
    """
    params.check_shapes(arch)
    flat = forward_batch(params, arch, train.graphs, features=True)
    labels = train.labels
    n = labels.shape[0]

    theta = pack_fc(params)
    resid, fc_pre, fc_out, out_w = _fc_eval(theta, arch, flat, labels)
    mse = float(resid @ resid) / (2 * n)
    mu = cfg.mu_init
    history = []
    converged = False
    reason = "max_iters"
    grad = jtj = None
    stale = True

    for it in range(1, cfg.max_iters + 1):
        if stale:
            # rejected steps retry on the same J'J with a larger mu
            jtj, grad = _fc_normal_equations(arch, flat, fc_pre, fc_out, out_w, resid)
            stale = False
        gnorm = float(np.max(np.abs(grad))) / n
        if gnorm < cfg.grad_tol:
            converged, reason = True, "gradient"
            break

        solved = False
        while mu <= cfg.mu_max:
            try:
                delta = np.linalg.solve(jtj + mu * np.eye(jtj.shape[0]), grad)
                solved = True
                break
            except np.linalg.LinAlgError:
                mu *= cfg.mu_up
        if not solved:
            raise TrainingError("LM normal-equation solve failed at every damping level")

        cand = theta - delta
        cand_resid, cand_pre, cand_out, cand_w = _fc_eval(cand, arch, flat, labels)
        cand_mse = float(cand_resid @ cand_resid) / (2 * n)

        accepted = bool(np.isfinite(cand_mse) and cand_mse < mse)
        if accepted:
            rel = (mse - cand_mse) / mse if mse > 0 else 0.0
            theta, resid, fc_pre, fc_out, out_w = cand, cand_resid, cand_pre, cand_out, cand_w
            mse = cand_mse
            mu = max(mu * cfg.mu_down, 1e-14)
            stale = True
            history.append((it, mse, mu, 1, gnorm))
            if rel < cfg.min_rel_improvement:
                converged, reason = True, "stalled"
                break
        else:
            mu *= cfg.mu_up
            history.append((it, mse, mu, 0, gnorm))
            if mu > cfg.mu_max:
                converged, reason = True, "damping_limit"
                break

    fc_w, fc_b, out_w_fin, out_b = unpack_fc(theta, arch)
    trained = ConvNetParams(
        params.conv_kernels.copy(),
        params.conv_biases.copy(),
        fc_w,
        fc_b,
        out_w_fin,
        out_b,
    )
    hist_arr = np.asarray(history, dtype=float) if history else np.zeros((0, 5))
    return trained, LmResult(hist_arr, converged, reason)


def mlp_cost_and_grads(layers: list[MlpLayer], x: np.ndarray, labels: np.ndarray):
    """MSE cost and per-layer (dW, db) for a plain MLP over x (N, D)."""
    pres, acts = mlp_forward_parts(layers, np.asarray(x, dtype=float).T)
    cost, d_out = _cost_and_output_delta(acts[-1], labels.T)
    return cost, mlp_backprop(layers, pres, acts, d_out)[0]


def train_mlp_adam(
    layers: list[MlpLayer],
    x: np.ndarray,
    labels: np.ndarray,
    cfg: AdamConfig,
) -> tuple[list[MlpLayer], np.ndarray]:
    """`adam_minimize` over every MLP layer's weights and biases."""
    def rebuild(values):
        return [MlpLayer(values[2 * j], values[2 * j + 1], layer.act) for j, layer in enumerate(layers)]

    def cost_and_grads(values):
        cost, grads = mlp_cost_and_grads(rebuild(values), x, labels)
        return cost, [g for dw_db in grads for g in dw_db]

    values = [a.copy() for layer in layers for a in (layer.weights, layer.biases)]
    values, history = adam_minimize(values, cost_and_grads, cfg)
    return rebuild(values), history


def write_history_csv(history: np.ndarray, path, comment: str | None = None) -> None:
    """Convergence curve: iter,mse_train[,mse_test] rows."""
    history = np.asarray(history)
    cols = ["iter", "mse_train"] + (["mse_test"] if history.shape[1] > 2 else [])
    write_csv(path, cols, [history[:, 0].astype(int), *history[:, 1:].T], comment)
