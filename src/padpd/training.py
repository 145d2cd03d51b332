"""Two-stage training: full-batch Adam over everything, then a
Levenberg-Marquardt polish of the fully connected and output layers with the
convolutional front end frozen (the trained kernels act as a fixed filter).

The conv model's dense head is an MLP layer stack, so one backward pass
(`_Split.cost_and_grad`) and one Adam loop (`adam_minimize`) serve both the
conv model and the MLP baselines (`train_mlp_baseline`); the conv model
adds only its kernel gradient. A training call packs the parameters into one
flat vector (a `Net`), cuts each data split into the column blocks of
`network.blocks` with a `Workspace` of preallocated buffers each, and its
loop updates the vector in place: `adam_minimize`, or `lm_minimize` on a
one-block split of a net of one hidden layer and a linear output, such as the
conv model's head over its frozen features. Every trainer lives here, and
none writes a file.

The cost everywhere is mse = (1/2N) * sum[(I'-I)^2 + (Q'-Q)^2], one sum
over a split's squared residuals (`_Split.cost`) for Adam and LM alike. Inside,
activations, deltas and targets are feature-major, shape (features, N), as
in `network`; the public functions take (N, features) arrays.
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
        if not 0.0 <= self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and >= 0")
        if not self.mu_init <= self.mu_max < math.inf:
            raise ValueError("mu_max must be finite and at least mu_init")
        if not 0.0 <= self.min_rel_improvement < 1.0:
            raise ValueError("min_rel_improvement must lie in [0, 1)")


class _Block:
    """One column block of a `_Split`: its `Workspace`, its residual,
    ``cols``, the split's samples it holds, which begin at ``start``, and
    with ``backward`` the buffers of each dense layer's input gradient.
    ``lm`` holds `_fc_normal_equations`' N-long buffers once it has run."""

    def __init__(self, net: Net, x: np.ndarray, start: int, backward: bool):
        self.ws = Workspace(net, x)
        self.resid = np.empty(self.ws.acts[-1].shape)
        self.cols = slice(start, start + self.resid.shape[1])
        self.deltas = [np.empty(a.shape) for a in self.ws.acts[:-1]] if backward else []
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
    whose one sum is the cost of every trainer, Adam's and LM's.
    """

    def __init__(self, net: Net, xs: list[np.ndarray], labels: np.ndarray, backward: bool = False):
        self.net, self.targets = net, labels.T
        self.blocks, start = [], 0
        for x in xs:
            self.blocks.append(_Block(net, x, start, backward))
            start = self.blocks[-1].cols.stop
        if start != self.targets.shape[1]:
            raise ValueError(f"the blocks hold {start} samples, the labels {self.targets.shape[1]}")
        self.sq = np.empty(self.targets.shape)
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
        into the bias gradient. The derivatives of tanh and sigmoid overwrite
        the pre-activations they no longer need.
        """
        net = self.net
        for i, block in enumerate(self.blocks):
            g, ws = grad if i == 0 else self.block_grad, block.ws
            delta = np.divide(self._forward(block), self.targets.shape[1], out=block.resid)
            for j in range(len(net.layers) - 1, -1, -1):
                layer, g_layer = net.layers[j], g.layers[j]
                if layer.act.kind != "linear":
                    delta *= layer.act.derivative_from_output(ws.pres[j], ws.acts[j + 1], into=ws.pres[j])
                np.matmul(ws.acts[j], delta.T, out=g_layer.weights)
                np.sum(delta, axis=1, out=g_layer.biases)
                if block.deltas[j] is not None:
                    delta = np.matmul(layer.weights, delta, out=block.deltas[j])
            if net.conv is not None:
                d_pre = delta.reshape(net.conv.shape[0], -1)
                d_pre *= net.arch.conv_activation.derivative_from_output(ws.conv_pre, ws.conv_out,
                                                                         into=ws.conv_pre)
                np.matmul(d_pre, ws.x.T, out=g.conv)
            if i:
                np.add(grad.theta, g.theta, out=grad.theta)
        return self._mse()


def _conv_split(net: Net, data: Dataset, backward: bool = False) -> _Split:
    """A conv model's split of ``data``: one block of `_im2col` columns per
    `blocks` slice of its graphs."""
    return _Split(net, [_im2col(data.graphs[b], net.arch) for b in blocks(len(data.graphs))], data.labels,
                  backward)


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


def adam_minimize(train: _Split, cfg: AdamConfig, test: _Split | None = None) -> np.ndarray:
    """Full-batch Adam on the split's net, until mse < threshold or max_iters.

    The net's parameter vector is updated in place, with its gradient in one
    flat buffer. Returns the history rows, (iteration, mse_train), or
    (iteration, mse_train, mse_test) when a ``test`` split of the same net is
    given. On a threshold stop the parameters are the ones whose cost is the
    last history row.
    """
    theta = train.net.theta
    grad = train.net.like(np.empty_like(theta))
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    history = []
    for it in range(1, cfg.max_iters + 1):
        cost = train.cost_and_grad(grad)
        if not np.isfinite(cost):
            raise TrainingError(f"Adam diverged at iteration {it} (mse={cost})")
        history.append((it, cost) if test is None else (it, cost, test.cost()))
        if cost < cfg.mse_threshold:
            break
        adam_step(theta, grad.theta, m, v, it, cfg)
    return np.asarray(history)


def train_stage1_adam(
    params: ConvNetParams,
    arch: ConvNetArch,
    train: Dataset,
    cfg: AdamConfig,
    test: Dataset | None = None,
) -> tuple[ConvNetParams, np.ndarray]:
    """Stage 1: `adam_minimize` over every conv model parameter.

    Each split's `_im2col` columns and buffers are built once up front, in
    `blocks`, and every iteration reuses them.
    """
    net = conv_net(params, arch)
    history = adam_minimize(_conv_split(net, train, backward=True), cfg,
                            None if test is None else _conv_split(net, test))
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


def _fc_normal_equations(block: _Block):
    """J'J and J'e, without forming J, of a block's residual over the FC and
    linear output layers of its net, after the pass that left the residual.

    Row n's I and Q rows of J share the factor ``[flat_n, 1] ⊗ fc_act'_n`` over
    the FC weights and biases, scaled by ``out_w[:, c]``; over component c's
    output weights and bias they hold ``[fc_out_n, 1]``. So J'J is the Gram
    matrix of the N-row ``W = [[flat, 1] ⊗ fc_act' | fc_out | 1]``, weighted
    by ``out_w``, and J'e is the head's backprop gradient.

    The feature-major buffers and residual are read as (N, ·) transposes, so
    ``flat.T`` and ``dact.T`` are contiguous; as in backprop, tanh's and
    sigmoid's derivatives overwrite the pre-activations, which the next
    forward pass refills. W is built
    transposed, one contiguous N-long row per column. It gets zero columns up
    to a multiple of 8: OpenBLAS then gives the Gram matrix the same bytes at
    any thread count, which it does not for some other widths. W and the
    head's delta are written into buffers the block keeps from its first call
    on, so LM's later calls allocate nothing N-long.
    """
    ws, e = block.ws, block.resid.T
    flat, fc_pre, fc_out = ws.acts[0].T, ws.pres[0].T, ws.acts[1].T
    fc_act, out_w = ws.net.layers[0].act, ws.net.layers[1].weights
    n, t = fc_pre.shape
    f = flat.shape[1]
    m = (f + 1) * t  # FC weights and biases, in `Net` order
    dact = fc_act.derivative_from_output(fc_pre, fc_out, into=fc_pre)

    if block.lm is None:  # the padding rows stay zero: no call writes them
        block.lm = np.zeros((-(-(m + t + 1) // 8) * 8, n)), np.empty((n, t))
    w_t, delta = block.lm
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

    np.multiply(dact, np.matmul(e, out_w.T, out=delta), out=delta)
    jte = np.concatenate([(flat.T @ delta).ravel(), delta.sum(axis=0),
                          (w_t[m : m + t + 1] @ e).ravel()])
    return jtj, jte


def lm_minimize(split: _Split, cfg: LmConfig) -> LmResult:
    """Damped Gauss-Newton on the split's net, an FC layer and a linear output.

    The split is one block: LM takes one pass over all of it, and its cost is
    the split's `_Split.cost`, the one Adam minimizes. Steps solve
    (J'J + mu I) delta = J'e; a step is kept only if the cost drops (then mu
    shrinks), otherwise it is undone and retried on the same J'J with a
    larger mu. The net's vector is updated in place.
    """
    (block,) = split.blocks
    theta, n = split.net.theta, split.targets.shape[1]
    mse = split.cost()
    jtj, grad = _fc_normal_equations(block)
    mu, history, reason = cfg.mu_init, [], "max_iters"
    for it in range(1, cfg.max_iters + 1):
        gnorm = float(np.max(np.abs(grad))) / n
        if gnorm < cfg.grad_tol:
            reason = "gradient"
            break
        while True:
            try:
                delta = np.linalg.solve(jtj + mu * np.eye(jtj.shape[0]), grad)
                break
            except np.linalg.LinAlgError:
                mu *= cfg.mu_up
                if mu > cfg.mu_max:
                    raise TrainingError("LM normal-equation solve failed at every damping level") from None

        kept = theta.copy()
        theta -= delta
        cand_mse = split.cost()
        if np.isfinite(cand_mse) and cand_mse < mse:
            rel = (mse - cand_mse) / mse
            mse = cand_mse
            mu = max(mu * cfg.mu_down, 1e-14)
            history.append((it, mse, mu, 1, gnorm))
            if rel < cfg.min_rel_improvement:
                reason = "stalled"
                break
            if it < cfg.max_iters:  # the buffers hold the accepted parameters' forward pass
                jtj, grad = _fc_normal_equations(block)
        else:
            theta[:] = kept
            mu *= cfg.mu_up
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
    result = lm_minimize(_Split(Net(net.theta[net.conv.size :], net.layers), [features], train.labels), cfg)
    return net.conv_params(), result


def train_mlp_baseline(
    spec: MlpBaselineSpec,
    train: Dataset,
    cfg: AdamConfig,
    seed: int = 0,
) -> tuple[list[MlpLayer], np.ndarray]:
    """`adam_minimize` over every weight and bias of a baseline MLP, on a
    dataset's graphs, in `blocks` of their features; returns (layers, history)."""
    feats = mlp_features_from_graphs(train.graphs, spec.feature_kind)
    net = Net.of(mlp_init(spec.widths(train.memory_depth), Activation(spec.hidden_activation), seed))
    split = _Split(net, [feats[b].T for b in blocks(len(feats))], train.labels, backward=True)
    history = adam_minimize(split, cfg)
    return net.layers, history
