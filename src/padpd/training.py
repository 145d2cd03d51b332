"""Two-stage training: full-batch Adam over everything, then a
Levenberg-Marquardt polish of the fully connected and output layers with the
convolutional front end frozen (the trained kernels act as a fixed filter).

The conv model's dense head is an MLP layer stack, so one backward pass
(`_Split.cost_and_grad`) serves every trainer: one Adam loop
(`adam_minimize`) for the conv model and the MLP baselines
(`train_mlp_baseline`) alike, and LM, whose J'e is N times the head's
gradient (Hagan & Menhaj, IEEE TNN 1994). The conv model adds only its
kernel gradient, and LM only J'J (`_fc_jtj`). A training call packs the
parameters into one flat vector (a `Net`), cuts each data split into the
column blocks of `network.blocks` with a `Workspace` of preallocated buffers
each, and its loop updates the vector in place: `adam_minimize`, or
`lm_minimize` on a one-block split of a net of one hidden layer and a linear
output, such as the conv model's head over its frozen features. Every
trainer lives here, and none writes a file.

The cost everywhere is mse = (1/2N) * sum[(I'-I)^2 + (Q'-Q)^2], one sum
over a split's squared residuals (`_Split.cost`) for Adam and LM alike. Inside,
activations, deltas and targets are feature-major, shape (features, N), as
in `network`; the public functions take (N, features) arrays.

Adam's forward and backward passes run in float32 over float64 master
weights (Micikevicius et al., Mixed Precision Training, ICLR 2018), since
numpy's float32 tanh, sigmoid and small GEMMs are 2-5x faster than float64's:
its splits hold float32 inputs and buffers over a float32 copy of the net
(`_pass_net`). Everything else, LM, `mse_cost` and `backprop_grads`
included, runs in float64 on the same code: a split's buffers take its
input's dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import MlpBaselineSpec, mlp_features_from_graphs
from .dataset import Dataset
from .network import (
    Activation,
    ConvNetArch,
    ConvNetParams,
    MlpLayer,
    Net,
    Workspace,
    _im2col,
    blocks,
    conv_net,
    mlp_init,
)

__all__ = [
    "AdamConfig",
    "LmConfig",
    "TrainingError",
    "mse_cost",
    "backprop_grads",
    "adam_step",
    "adam_minimize",
    "train_stage1_adam",
    "lm_minimize",
    "train_stage2_lm",
    "LmResult",
    "train_mlp_baseline",
]


_STALL_WINDOW = 3  # consecutive small accepted steps that stop LM as stalled

_PASS_DTYPE = np.float32  # the dtype of Adam's forward and backward passes


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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.mse_threshold >= 0:
            raise ValueError("mse_threshold must be >= 0")


@dataclass(frozen=True)
class LmConfig:
    """``mu_init`` is the factor on max diag(J'J) that gives LM's first damping
    value; ``mu_max`` is the absolute damping value past which a rejected step
    stops LM (``damping_limit``)."""

    mu_init: float = 1e-3
    max_iters: int = 200
    grad_tol: float = 1e-9
    mu_max: float = 1e12
    min_rel_improvement: float = 5e-3

    def __post_init__(self):
        if not 0.0 < self.mu_init < math.inf:
            raise ValueError("mu_init must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 <= self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and >= 0")
        if not 0.0 < self.mu_max < math.inf:
            raise ValueError("mu_max must be finite and positive")
        if not 0.0 <= self.min_rel_improvement < 1.0:
            raise ValueError("min_rel_improvement must lie in [0, 1)")


class _Block:
    """One column block of a `_Split`: its `Workspace`, its residual,
    ``cols``, the split's samples it holds, which begin at ``start``, and
    with ``backward`` the buffers of each dense layer's input gradient.
    ``lm`` holds `_fc_jtj`'s N-long buffers once it has run.
    Every buffer but those has ``x``'s dtype."""

    def __init__(self, net: Net, x: np.ndarray, start: int, backward: bool):
        self.ws = Workspace(net, x)
        self.resid = np.empty_like(self.ws.acts[-1])
        self.cols = slice(start, start + self.resid.shape[1])
        self.deltas = [np.empty(a.shape, x.dtype) for a in self.ws.acts[:-1]] if backward else []
        if backward and net.conv is None:
            self.deltas[0] = None  # an MLP needs no gradient at its input
        self.lm = None


class _Split:
    """One data split's feature-major targets and buffers, built once per
    training call.

    ``xs`` holds the split's input in column blocks, feature-major, whose
    columns run through the split in order: a conv model's `_im2col` columns
    or an MLP's features per block. Each block gets its own buffers, so a pass
    over it stays in cache. ``sq`` holds the whole split's squared residuals,
    whose one sum is the cost of every trainer, Adam's and LM's. The targets
    and ``sq`` take the input's dtype, as the blocks' buffers do.
    """

    def __init__(self, net: Net, xs: list[np.ndarray], labels: np.ndarray, backward: bool = False):
        self.net, self.targets = net, np.asarray(labels, dtype=xs[0].dtype).T
        self.blocks, start = [], 0
        for x in xs:
            self.blocks.append(_Block(net, x, start, backward))
            start = self.blocks[-1].cols.stop
        if start != self.targets.shape[1]:
            raise ValueError(f"the blocks hold {start} samples, the labels {self.targets.shape[1]}")
        self.sq = np.empty(self.targets.shape, self.targets.dtype)
        # where the blocks after the first write their gradient
        self.block_grad = net.like(np.empty_like(net.theta)) if backward and len(xs) > 1 else None

    def _forward(self, block: _Block) -> np.ndarray:
        """One block's forward pass; returns its residual, ``block.resid``,
        and writes its squares into the block's columns of ``sq``."""
        np.subtract(block.ws.forward(), self.targets[:, block.cols], out=block.resid)
        np.multiply(block.resid, block.resid, out=self.sq[:, block.cols])
        return block.resid

    def _mse(self) -> float:
        return float(self.sq.sum() / (2 * self.targets.shape[1]))

    def cost(self) -> float:
        """The MSE cost at the net's current parameters; leaves each block's
        residual in its ``resid``."""
        for block in self.blocks:
            self._forward(block)
        return self._mse()

    def cost_and_grad(self, grad: Net) -> float:
        """The MSE cost; writes its gradient into ``grad``, a `Net.like` of the
        split's net.

        Block by block: the forward pass, then the backward pass from the
        block's residual over the whole split's N, so that the block
        gradients add up, in block order, to the split's. The cost is one sum
        of ``sq`` after the last block, so it has the same bytes however the
        split is cut.

        The dense layers backpropagate from the output; a conv model's
        gradient at the head's input, ``fc_weights @ d_fc``, is the conv
        layer's (L, B*C*N) delta after a reshape, and its [K | b] gradient is
        one GEMM, ``d_pre @ cols.T``: the ones row of ``cols`` sums ``d_pre``
        into the bias gradient. Each derivative, taken from its layer's output,
        overwrites the pre-activations, which are no longer needed.
        """
        net = self.net
        for i, block in enumerate(self.blocks):
            g, ws = grad if i == 0 else self.block_grad, block.ws
            delta = np.divide(self._forward(block), self.targets.shape[1], out=block.resid)
            for j in range(len(net.layers) - 1, -1, -1):
                layer, g_layer = net.layers[j], g.layers[j]
                if layer.act.kind != "linear":
                    delta *= layer.act.derivative(ws.acts[j + 1], into=ws.pres[j])
                np.matmul(ws.acts[j], delta.T, out=g_layer.weights)
                np.sum(delta, axis=1, out=g_layer.biases)
                if block.deltas[j] is not None:
                    delta = np.matmul(layer.weights, delta, out=block.deltas[j])
            if net.conv is not None:
                d_pre = delta.reshape(net.conv.shape[0], -1)
                d_pre *= net.arch.conv_activation.derivative(ws.conv_out, into=ws.conv_pre)
                np.matmul(d_pre, ws.x.T, out=g.conv)
            if i:
                np.add(grad.theta, g.theta, out=grad.theta)
        return self._mse()


def _pass_net(net: Net) -> Net:
    """``net``'s layout over a `_PASS_DTYPE` copy of its vector: the net whose
    splits Adam's passes run on."""
    return net.like(net.theta.astype(_PASS_DTYPE))


def _conv_split(net: Net, data: Dataset, backward: bool = False) -> _Split:
    """A conv model's split of ``data``: one block of `_im2col` columns per
    `blocks` slice of its graphs, in the net's dtype."""
    return _Split(net, [_im2col(data.graphs[b], net.arch, net.theta.dtype) for b in blocks(len(data.graphs))],
                  data.labels, backward)


def mse_cost(params: ConvNetParams, arch: ConvNetArch, data: Dataset) -> float:
    return _conv_split(conv_net(params, arch), data).cost()


def backprop_grads(params: ConvNetParams, arch: ConvNetArch, data: Dataset) -> ConvNetParams:
    """Gradient of the MSE cost, shaped like the parameters."""
    net = conv_net(params, arch)
    grad = net.like(np.empty_like(net.theta))
    _conv_split(net, data, backward=True).cost_and_grad(grad)
    return grad.conv_params()


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              k: int, cfg: AdamConfig) -> None:
    """Adam update number ``k`` (from 1) with bias correction, in place on
    ``theta`` and on its moment buffers ``m`` and ``v``."""
    b1c = 1.0 - cfg.beta1**k
    b2c = 1.0 - cfg.beta2**k
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    theta -= cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + cfg.epsilon)


def adam_minimize(theta: np.ndarray, train: _Split, cfg: AdamConfig, test: _Split | None = None) -> np.ndarray:
    """Full-batch Adam on ``theta``, the float64 master copy of the split's
    net's vector, until mse < threshold or max_iters.

    The passes run on the net's own vector, in its dtype, with the gradient
    in one flat buffer of that dtype. Each step casts the gradient to
    ``theta``'s dtype, updates ``theta`` and its float64 moments in place, and
    writes ``theta`` into the net's vector, which may be ``theta`` itself.
    Returns the history rows, (iteration, mse_train), or (iteration,
    mse_train, mse_test) when a ``test`` split of the same net is given. On a
    threshold stop the net's vector, ``theta`` in its dtype, is the one whose
    cost is the last history row.
    """
    net = train.net
    grad = net.like(np.empty_like(net.theta))
    step_grad, m, v = np.empty_like(theta), np.zeros_like(theta), np.zeros_like(theta)
    history = []
    for it in range(1, cfg.max_iters + 1):
        cost = train.cost_and_grad(grad)
        if not np.isfinite(cost):
            raise TrainingError(f"Adam diverged at iteration {it} (mse={cost})")
        history.append((it, cost) if test is None else (it, cost, test.cost()))
        if cost < cfg.mse_threshold:
            break
        np.copyto(step_grad, grad.theta)
        adam_step(theta, step_grad, m, v, it, cfg)
        np.copyto(net.theta, theta)
    return np.asarray(history)


def train_stage1_adam(
    params: ConvNetParams,
    arch: ConvNetArch,
    train: Dataset,
    cfg: AdamConfig,
    test: Dataset | None = None,
) -> tuple[ConvNetParams, np.ndarray]:
    """Stage 1: `adam_minimize` over every conv model parameter.

    Each split's float32 `_im2col` columns and buffers are built once up
    front, in `blocks`, and every iteration reuses them; the parameters are
    returned from the float64 master vector.
    """
    net = conv_net(params, arch)
    passes = _pass_net(net)
    history = adam_minimize(net.theta, _conv_split(passes, train, backward=True), cfg,
                            None if test is None else _conv_split(passes, test))
    return net.conv_params(), history


@dataclass
class LmResult:
    """History rows are (iteration, mse, mu, accepted, grad_norm)."""

    history: np.ndarray
    reason: str

    @property
    def n_iters(self) -> int:
        return self.history.shape[0]

    @property
    def converged(self) -> bool:
        return self.reason != "max_iters"


def _fc_jtj(block: _Block) -> np.ndarray:
    """J'J, without forming J, of a block's residual over the FC and linear
    output layers of its net, after a forward pass at the net's parameters.

    Row n's I and Q rows of J share the factor ``[flat_n, 1] ⊗ fc_act'_n`` over
    the FC weights and biases, scaled by ``out_w[:, c]``; over component c's
    output weights and bias they hold ``[fc_out_n, 1]``. So J'J is the Gram
    matrix of the N-row ``W = [[flat, 1] ⊗ fc_act' | fc_out | 1]``, weighted
    by ``out_w``. J'e is N times the head's gradient, `_Split.cost_and_grad`.

    The feature-major buffers are read as (N, ·) transposes, so ``flat.T`` and
    ``dact.T`` are contiguous; as in backprop, the FC derivative overwrites the
    pre-activations, which the next forward pass refills. W is built
    transposed, one contiguous N-long row per column. It gets zero columns up
    to a multiple of 8: OpenBLAS then gives the Gram matrix the same bytes at
    any thread count, which it does not for some other widths. W, the Gram
    matrix and J'J with its output weight factors are written into buffers
    the block keeps from its first call on, so LM's later calls allocate no
    array of N or of P×P elements; each call overwrites the J'J it returns.
    """
    ws = block.ws
    flat, fc_pre, fc_out = ws.acts[0].T, ws.pres[0].T, ws.acts[1].T
    fc_act, out_w = ws.net.layers[0].act, ws.net.layers[1].weights
    n, t = fc_pre.shape
    f = flat.shape[1]
    m = (f + 1) * t  # FC weights and biases, in `Net` order
    p = m + 2 * (t + 1)
    dact = fc_act.derivative(fc_out, into=fc_pre)

    if block.lm is None:  # the padding rows stay zero: no call writes them
        rows = -(-(m + t + 1) // 8) * 8
        scale = np.zeros((p, p))
        scale[m:, m:] = np.kron(np.ones((t + 1, t + 1)), np.eye(2))
        block.lm = (np.zeros((rows, n)), np.empty((rows, rows)), np.zeros((p, p)), scale)
    w_t, g, jtj, scale = block.lm
    fc_rows = w_t[:m].reshape(f + 1, t, n)
    np.multiply(flat.T[:, None, :], dact.T[None, :, :], out=fc_rows[:f])
    fc_rows[f] = dact.T
    w_t[m : m + t] = fc_out.T
    w_t[m + t] = 1.0
    np.matmul(w_t, w_t.T, out=g)

    # J'J: each Gram entry at its J'J positions, times the output weights that J's I and Q rows
    # there carry (``scale``). Copies place the entries, and the one product runs over contiguous
    # arrays: a ufunc over strided blocks would take buffers of up to 3 P×P arrays.
    jtj[:m, :m] = g[:m, :m]
    jtj[:m, m:].reshape(m, t + 1, 2)[...] = g[:m, m : m + t + 1, None]
    jtj[m:, m:].reshape(t + 1, 2, t + 1, 2)[...] = g[m : m + t + 1, None, m : m + t + 1, None]
    scale[:m, :m].reshape(f + 1, t, f + 1, t)[...] = (out_w @ out_w.T)[None, :, None, :]
    scale[:m, m:].reshape(f + 1, t, t + 1, 2)[...] = out_w[None, :, None, :]
    np.multiply(jtj, scale, out=jtj)
    jtj[m:, :m] = jtj[:m, m:].T
    return jtj


def lm_minimize(split: _Split, cfg: LmConfig) -> LmResult:
    """Damped Gauss-Newton on the split's net, an FC layer and a linear output.

    The split is one block with backward buffers: LM takes one pass over all
    of it, `_Split.cost_and_grad`, whose cost is the one Adam minimizes and
    whose gradient times N is J'e. Steps solve
    (J'J + mu I) delta = J'e, from mu = ``mu_init`` * max diag(J'J). A step is
    kept only if the cost drops; then mu is scaled by Nielsen's gain-ratio
    rule, max(1/3, 1 - (2 rho - 1)^3), where rho is the cost's drop over the
    drop the linear model predicts, and nu is reset to 2. Otherwise the step
    is undone and retried on the same J'J with mu scaled by nu, and nu
    doubles (Madsen, Nielsen & Tingleff, Methods for Non-Linear Least Squares
    Problems, IMM DTU 2004). LM stops as ``stalled`` once `_STALL_WINDOW`
    accepted steps in a row each lower the cost by less than
    ``min_rel_improvement`` of it. The net's vector is updated in place; J'e,
    the damped system and the parameters a step starts from are written into
    buffers made once, and only an accepted step writes J'e.
    """
    (block,) = split.blocks
    theta, n = split.net.theta, split.targets.shape[1]
    grad = split.net.like(np.empty_like(theta))
    mse = split.cost_and_grad(grad)
    jte, jtj = np.multiply(grad.theta, n), _fc_jtj(block)
    damped, kept = np.empty_like(jtj), np.empty_like(theta)
    diag = damped.reshape(-1)[:: jtj.shape[0] + 1]  # a view of damped's diagonal
    mu, nu, small = cfg.mu_init * float(jtj.diagonal().max()), 2.0, 0
    history, reason = [], "max_iters"
    for it in range(1, cfg.max_iters + 1):
        gnorm = float(np.max(np.abs(jte))) / n
        if gnorm < cfg.grad_tol:
            reason = "gradient"
            break
        while True:
            np.copyto(damped, jtj)
            diag += mu
            try:
                delta = np.linalg.solve(damped, jte)
                break
            except np.linalg.LinAlgError:
                mu, nu = mu * nu, 2 * nu
                if mu > cfg.mu_max:
                    raise TrainingError("LM normal-equation solve failed at every damping level") from None

        np.copyto(kept, theta)
        theta -= delta
        cand_mse = split.cost_and_grad(grad)
        if np.isfinite(cand_mse) and cand_mse < mse:
            # the drop of N * mse = ||e||^2 / 2 against the linear model's, (delta'(mu delta + J'e)) / 2
            rho = n * (mse - cand_mse) / (0.5 * float(delta @ (mu * delta + jte)))
            small = small + 1 if (mse - cand_mse) / mse < cfg.min_rel_improvement else 0
            mse = cand_mse
            # every rho >= 1 gives the floor 1/3; the cap keeps the cube finite
            mu, nu = mu * max(1 / 3, 1 - (2 * min(rho, 1.0) - 1) ** 3), 2.0
            history.append((it, mse, mu, 1, gnorm))
            if small == _STALL_WINDOW:
                reason = "stalled"
                break
            if it < cfg.max_iters:  # the buffers hold the accepted parameters' passes
                np.multiply(grad.theta, n, out=jte)
                jtj = _fc_jtj(block)
        else:
            theta[:] = kept
            mu, nu = mu * nu, 2 * nu
            history.append((it, mse, mu, 0, gnorm))
            if mu > cfg.mu_max:
                reason = "damping_limit"
                break
    return LmResult(np.asarray(history, dtype=float) if history else np.zeros((0, 5)), reason)


def train_stage2_lm(
    params: ConvNetParams,
    arch: ConvNetArch,
    train: Dataset,
    cfg: LmConfig,
) -> tuple[ConvNetParams, LmResult]:
    """Stage 2: `lm_minimize` over the FC and output layers, a `Net` over the
    head's slice of the model's vector whose input is the frozen conv layer's
    maps over the train split. Only the maps outlive their workspace."""
    net = conv_net(params, arch)
    ws = Workspace(net, _im2col(train.graphs, arch))
    ws.forward()
    features = ws.acts[0]
    del ws
    result = lm_minimize(_Split(net.head, [features], train.labels, backward=True), cfg)
    return net.conv_params(), result


def train_mlp_baseline(
    spec: MlpBaselineSpec,
    train: Dataset,
    cfg: AdamConfig,
    seed: int = 0,
) -> tuple[list[MlpLayer], np.ndarray]:
    """`adam_minimize` over every weight and bias of a baseline MLP, on a
    dataset's graphs, in `blocks` of their float32 features; returns the
    float64 (layers, history)."""
    net = Net.of(mlp_init(spec.widths(train.memory_depth), Activation(spec.hidden_activation), seed))
    passes = _pass_net(net)
    xs = [mlp_features_from_graphs(train.graphs[b], spec.feature_kind, passes.theta.dtype).T
          for b in blocks(len(train.graphs))]
    history = adam_minimize(net.theta, _Split(passes, xs, train.labels, backward=True), cfg)
    return net.layers, history
