"""Forward passes for the convolutional behavioral model and plain MLPs.

The conv model runs a valid (no padding, stride 1) cross-correlation over the
5 x (M+1) feature graph, giving L maps of shape B x C with B = 5-r+1 and
C = (M+1)-s+1. Maps are flattened kernel-major (then row-major inside a map)
and feed the dense head: a T-neuron fully connected layer and a 2-neuron
linear output for I and Q. The head is an ordinary MLP layer stack, so the
conv model and the MLP baselines share one forward pass: a `Net` holds a
model's parameters as views into one flat vector, and a `Workspace` holds one
batch's preallocated buffers, which `Workspace.forward` fills. A pass over
many samples, whether an Adam split, a prediction or a DPD drive, runs in
`blocks` of at most `_BLOCK_SAMPLES` samples: one `Workspace` each, or for
the graphs of a drive's consecutive samples one `ConvStream` for them all.

Inside, every activation is stored feature-major, shape (features, N), with
the sample index contiguous: the conv GEMM's output is then the head's input
as it stands. The public functions take and return (N, features) arrays.

A `Workspace` allocates its buffers in its input's dtype, so one code path
runs a pass in float64 or float32 (`training` runs Adam's in float32); every
public function here runs in float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import codec
from .dataset import N_FEATURE_ROWS
from .signals import _even_slices

__all__ = [
    "Activation",
    "ConvNetArch",
    "ConvNetParams",
    "ConvStream",
    "Net",
    "Workspace",
    "blocks",
    "conv_net",
    "forward_batch",
    "init_params",
    "MlpLayer",
    "mlp_forward",
    "mlp_init",
    "save_params",
    "load_params",
]

N_OUTPUTS = 2

ACTIVATION_KINDS = ("sigmoid", "tanh", "linear")


def _float(a) -> np.ndarray:
    """``a`` as a float array: a float32 array stays float32 (and is not
    copied), anything else becomes float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(float, copy=False)


@dataclass(frozen=True)
class Activation:
    """Pointwise activation whose derivative is read off its output."""

    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}, expected one of {ACTIVATION_KINDS}")

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The activation of ``v``, written into ``out`` when it is given."""
        v = _float(v)
        if out is None:
            out = np.empty_like(v)
        if self.kind == "sigmoid":
            # 1/(1+exp(-v)); exp overflows to inf below v = -709, giving 0
            with np.errstate(over="ignore"):
                np.exp(np.negative(v, out=out), out=out)
            out += 1.0
            return np.divide(1.0, out, out=out)
        if self.kind == "tanh":
            return np.tanh(v, out=out)
        np.copyto(out, v)
        return out

    def derivative(self, out: np.ndarray, into: np.ndarray | None = None) -> np.ndarray:
        """The derivative at ``v``, given ``out = self(v)`` from the forward
        pass, written into ``into`` when it is given (``into`` may hold
        ``v``): ``out (1 - out)`` for sigmoid, ``1 - out**2`` for tanh, ones
        for linear. So the backward pass never evaluates an activation again.
        """
        if self.kind == "sigmoid":
            return np.multiply(out, np.subtract(1.0, out, out=into), out=into)
        if self.kind == "tanh":
            sq = np.multiply(out, out, out=into)
            return np.subtract(1.0, sq, out=sq)
        if into is None:
            return np.ones_like(out)
        into.fill(1.0)
        return into


TANH = Activation("tanh")
LINEAR = Activation("linear")


@dataclass(frozen=True)
class ConvNetArch:
    """Architecture of the convolutional behavioral model."""

    memory_depth: int = 3
    n_kernels: int = 3
    kernel_rows: int = 3
    kernel_cols: int = 3
    fc_neurons: int = 6
    conv_activation: Activation = TANH
    fc_activation: Activation = TANH

    def __post_init__(self):
        if self.memory_depth < 0:
            raise ValueError("memory_depth must be >= 0")
        if not 1 <= self.kernel_rows <= N_FEATURE_ROWS:
            raise ValueError(f"kernel_rows must lie in 1..{N_FEATURE_ROWS}")
        if not 1 <= self.kernel_cols <= self.memory_depth + 1:
            raise ValueError("kernel_cols must lie in 1..memory_depth+1")
        if self.n_kernels < 1:
            raise ValueError("n_kernels must be >= 1")
        if self.fc_neurons < 1:
            raise ValueError("fc_neurons must be >= 1")

    @property
    def map_rows(self) -> int:
        return N_FEATURE_ROWS - self.kernel_rows + 1

    @property
    def map_cols(self) -> int:
        return (self.memory_depth + 1) - self.kernel_cols + 1

    @property
    def n_flat_features(self) -> int:
        return self.n_kernels * self.map_rows * self.map_cols

    @property
    def input_shape(self) -> tuple[int, int]:
        return (N_FEATURE_ROWS, self.memory_depth + 1)


@dataclass(frozen=True)
class ConvNetParams:
    """Trainable parameters, grouped per layer."""

    conv_kernels: np.ndarray  # (L, r, s)
    conv_biases: np.ndarray  # (L,)
    fc_weights: np.ndarray  # (L*B*C, T)
    fc_biases: np.ndarray  # (T,)
    out_weights: np.ndarray  # (T, 2)
    out_biases: np.ndarray  # (2,)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    def as_list(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    @staticmethod
    def shapes(arch: ConvNetArch) -> dict[str, tuple[int, ...]]:
        """Expected shape of each parameter array, in field order."""
        return {
            "conv_kernels": (arch.n_kernels, arch.kernel_rows, arch.kernel_cols),
            "conv_biases": (arch.n_kernels,),
            "fc_weights": (arch.n_flat_features, arch.fc_neurons),
            "fc_biases": (arch.fc_neurons,),
            "out_weights": (arch.fc_neurons, N_OUTPUTS),
            "out_biases": (N_OUTPUTS,),
        }

    def check_shapes(self, arch: ConvNetArch) -> None:
        for name, shape in self.shapes(arch).items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} for this arch")


def _as_graphs(graphs, arch: ConvNetArch) -> np.ndarray:
    graphs = np.asarray(graphs, dtype=float)
    if graphs.ndim != 3 or graphs.shape[1:] != arch.input_shape:
        raise ValueError(
            f"graphs must have shape (n, {arch.input_shape[0]}, {arch.input_shape[1]}), got {graphs.shape}"
        )
    return graphs


def _im2col(graphs: np.ndarray, arch: ConvNetArch, dtype=float) -> np.ndarray:
    """Unrolled convolution input, shape (r*s+1, B*C*N), in ``dtype``.

    Column (b, c, n) holds the taps of graph n's kernel window at map cell
    (b, c), in kernel row-major order, then a 1. The forward pass is one GEMM,
    ``[K | b] @ cols``, for the convolution plus its bias; its (L, B*C*N)
    result reshaped to (L*B*C, N) is the head's kernel-major input. The
    backward pass is one GEMM, ``d_pre @ cols.T``, for the kernel and bias
    gradients. The columns are cast from the graphs once, so another dtype
    than float64 takes no float64 copy of them.
    """
    graphs = _as_graphs(graphs, arch)
    r, s, b, c = arch.kernel_rows, arch.kernel_cols, arch.map_rows, arch.map_cols
    cells = np.ascontiguousarray(graphs.transpose(1, 2, 0), dtype=dtype)  # (5, M+1, N)
    cols = np.empty((r * s + 1, b, c, graphs.shape[0]), dtype)
    for u in range(r):
        for v in range(s):
            cols[u * s + v] = cells[u : u + b, v : v + c]
    cols[-1] = 1.0
    return cols.reshape(r * s + 1, -1)


def forward_batch(params: ConvNetParams, arch: ConvNetArch, graphs: np.ndarray) -> np.ndarray:
    """Model outputs, shape (n, 2) with columns (I, Q): the transpose of a
    feature-major array. Graphs go through in `blocks`, the cut training
    uses, so only one block's unrolled windows are held at a time, however
    long the input.
    """
    return _predict(conv_net(params, arch), _as_graphs(graphs, arch), lambda g: _im2col(g, arch))


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(arch: ConvNetArch, seed: int = 0) -> ConvNetParams:
    """Glorot-uniform weights, zero biases, fully seeded."""
    rng = np.random.default_rng(seed)
    r, s, l_k = arch.kernel_rows, arch.kernel_cols, arch.n_kernels
    rs = r * s
    return ConvNetParams(
        conv_kernels=_glorot(rng, (l_k, r, s), rs, rs * l_k),
        conv_biases=np.zeros(l_k),
        fc_weights=_glorot(rng, (arch.n_flat_features, arch.fc_neurons), arch.n_flat_features, arch.fc_neurons),
        fc_biases=np.zeros(arch.fc_neurons),
        out_weights=_glorot(rng, (arch.fc_neurons, N_OUTPUTS), arch.fc_neurons, N_OUTPUTS),
        out_biases=np.zeros(N_OUTPUTS),
    )


@dataclass(frozen=True)
class MlpLayer:
    weights: np.ndarray  # (n_in, n_out)
    biases: np.ndarray  # (n_out,)
    act: Activation = LINEAR

    def __post_init__(self):
        w, b = _float(self.weights), _float(self.biases)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValueError("layer weights must be (n_in, n_out) with matching biases")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)


@dataclass(frozen=True)
class Net:
    """A conv model or an MLP whose parameters are views into one flat vector.

    ``layers`` is the dense stack. A conv model also has ``conv``, its conv
    layer as [K | b] rows of shape (L, r*s+1), the layout its GEMM reads,
    and its ``arch``; an MLP has neither. Every array is a view into
    ``theta``, so an update written into ``theta`` updates every layer.
    """

    theta: np.ndarray
    layers: list
    conv: np.ndarray | None = None
    arch: ConvNetArch | None = None

    @classmethod
    def of(cls, layers: Sequence[MlpLayer], conv: np.ndarray | None = None,
           arch: ConvNetArch | None = None) -> "Net":
        """A net over a new vector that holds copies of the given arrays."""
        template = cls(np.empty(0), list(layers), conv, arch)
        return template.like(np.concatenate([a.ravel() for a in template.arrays]))

    @property
    def arrays(self) -> list[np.ndarray]:
        """Every parameter array, in ``theta`` order."""
        head = [a for layer in self.layers for a in (layer.weights, layer.biases)]
        return head if self.conv is None else [self.conv, *head]

    @property
    def head(self) -> "Net":
        """A conv model's dense layers as a `Net` of their own, over the head's
        slice of ``theta``: a view, not a copy."""
        return Net(self.theta[self.conv.size :], self.layers)

    def like(self, flat: np.ndarray) -> "Net":
        """The same layout over another vector, such as a gradient buffer."""
        views, start = [], 0
        for a in self.arrays:
            views.append(flat[start : start + a.size].reshape(a.shape))
            start += a.size
        conv = None if self.conv is None else views.pop(0)
        layers = [MlpLayer(w, b, layer.act) for w, b, layer in zip(views[::2], views[1::2], self.layers)]
        return Net(flat, layers, conv, self.arch)

    def conv_params(self) -> ConvNetParams:
        """A conv model's parameters, copied out of ``theta``."""
        a, (fc, out) = self.arch, self.layers
        return ConvNetParams(
            self.conv[:, :-1].reshape(a.n_kernels, a.kernel_rows, a.kernel_cols).copy(),
            self.conv[:, -1].copy(), fc.weights.copy(), fc.biases.copy(),
            out.weights.copy(), out.biases.copy(),
        )


def conv_net(params: ConvNetParams, arch: ConvNetArch) -> Net:
    """The conv model as a `Net` over a new parameter vector; its dense head is
    the FC layer and the linear output."""
    params.check_shapes(arch)
    ker = params.conv_kernels
    conv = np.column_stack([ker.reshape(ker.shape[0], -1), params.conv_biases])  # [K | b]
    head = [MlpLayer(params.fc_weights, params.fc_biases, arch.fc_activation),
            MlpLayer(params.out_weights, params.out_biases, LINEAR)]
    return Net.of(head, conv, arch)


# samples per block of a long batch: every pass over more samples than this
# (an Adam split, a prediction, a DPD drive) runs in `blocks`. At the
# paper's arch the `_im2col` columns take 480 B per sample: a 2800-sample
# block's 1.3 MB stay in a 2 MB L2 across its GEMMs, where an 8400-sample
# split's 4 MB are read from L3 at every pass
_BLOCK_SAMPLES = 4096


def blocks(n: int) -> list[slice]:
    """``range(n)`` cut into the fewest consecutive slices of at most
    `_BLOCK_SAMPLES` samples, of lengths that differ by at most one."""
    return _even_slices(n, _BLOCK_SAMPLES)


class Workspace:
    """A `Net`'s buffers for one batch, allocated once; each `forward`
    refills them at the net's current parameters.

    ``x`` is the batch, feature-major: a conv model's `_im2col` columns or an
    MLP's (D, N) features. ``pres`` holds each dense layer's pre-activations
    and ``acts`` their activations after ``acts[0]``, the dense stack's input:
    an MLP's ``x``, or a conv model's activated maps, kernel-major, as
    (L*B*C, N). A conv model's ``conv_pre`` and ``conv_out`` hold its conv
    layer's pre-activations and activations in the GEMM's (L, B*C*N) shape;
    ``acts[0]`` is ``conv_out`` reshaped. Every buffer has ``x``'s dtype, which
    must be the net's.
    """

    def __init__(self, net: Net, x: np.ndarray):
        if x.dtype != net.theta.dtype:
            raise ValueError(f"the input is {x.dtype} but the net is {net.theta.dtype}")
        self.net, self.x = net, x
        if net.conv is None:
            head_in = x
        else:
            self.conv_pre = np.empty((net.conv.shape[0], x.shape[1]), x.dtype)
            self.conv_out = np.empty_like(self.conv_pre)
            head_in = self.conv_out.reshape(net.arch.n_flat_features, -1)
        self.pres, self.acts = [], [head_in]
        for layer in net.layers:
            if self.acts[-1].shape[0] != layer.weights.shape[0]:
                raise ValueError(
                    f"layer expects {layer.weights.shape[0]} inputs, got {self.acts[-1].shape[0]}"
                )
            self.pres.append(np.empty((layer.weights.shape[1], head_in.shape[1]), x.dtype))
            self.acts.append(np.empty_like(self.pres[-1]))

    def forward(self) -> np.ndarray:
        """Fill the buffers; returns the output layer's activations."""
        net = self.net
        if net.conv is not None:
            np.matmul(net.conv, self.x, out=self.conv_pre)
            net.arch.conv_activation(self.conv_pre, out=self.conv_out)
        for layer, pre, x, out in zip(net.layers, self.pres, self.acts, self.acts[1:]):
            np.matmul(layer.weights.T, x, out=pre)
            pre += layer.biases[:, None]
            layer.act(pre, out=out)
        return self.acts[-1]


class ConvStream:
    """A conv model's forward pass over the graphs of consecutive samples, a
    block of at most ``n_max`` graphs at a time, on one set of buffers.

    The kernels slide along time with shared weights, and graph n's columns
    are samples n, n-1, ..., n-M, so graph n's map column c is the conv layer
    at sample n-c's map column 0. A block of N graphs thus needs the conv
    layer once for each of its N + C - 1 samples: one GEMM over their unrolled
    windows, whose L*B activated maps go into the head's kernel-major rows,
    shifted by c for map column c. Every output is the sum that
    `Workspace.forward` takes over the block's `_im2col` columns, without
    unrolling C windows per graph; at the shapes whose rows keep their bytes
    at any batch size (README) it has the same bytes.
    """

    def __init__(self, net: Net, n_max: int):
        a = net.arch
        span = a.map_rows * (n_max + a.map_cols - 1)  # map rows by samples
        self.net = net
        self.head = net.head
        self._cols = np.empty((a.kernel_rows * a.kernel_cols + 1) * span)
        self._pre = np.empty(a.n_kernels * span)
        self._act = np.empty_like(self._pre)
        self._maps = np.empty(a.n_flat_features * n_max)
        self._spaces: dict[int, Workspace] = {}  # the head's, per block length

    def forward(self, feats: np.ndarray) -> np.ndarray:
        """The (2, N) outputs of the N graphs over (5, N + M) sample features,
        `dataset.sample_features` of the N + M samples up to the last graph's."""
        a = self.net.arch
        r, s, b, c, k = a.kernel_rows, a.kernel_cols, a.map_rows, a.map_cols, a.n_kernels
        n = feats.shape[1] - a.memory_depth
        p = n + c - 1
        cols = self._cols[: (r * s + 1) * b * p].reshape(r * s + 1, b, p)
        for u in range(r):
            for v in range(s):  # sample j's tap v is feature column j + s-1 - v
                cols[u * s + v] = feats[u : u + b, s - 1 - v : s - 1 - v + p]
        cols[-1] = 1.0
        pre = np.matmul(self.net.conv, cols.reshape(r * s + 1, -1), out=self._pre[: k * b * p].reshape(k, -1))
        act = a.conv_activation(pre, out=self._act[: k * b * p].reshape(k, -1)).reshape(k, b, p)
        maps = self._maps[: a.n_flat_features * n].reshape(k, b, c, n)
        for j in range(c):
            maps[:, :, j] = act[:, :, c - 1 - j : c - 1 - j + n]
        if n not in self._spaces:
            self._spaces[n] = Workspace(self.head, maps.reshape(-1, n))
        return self._spaces[n].forward()


def _predict(net: Net, rows: np.ndarray, columns) -> np.ndarray:
    """``net``'s (N, outputs) outputs over the N ``rows``, in `blocks`: one
    `Workspace` per block, over ``columns`` of the block's rows, its
    feature-major input, which may add columns after the block's own. numpy
    sends a one-column product to gemv, whose sums round unlike gemm's; a
    lone row runs as two copies, so that it gets the bytes of the same row in
    a larger batch."""
    out = np.empty((net.layers[-1].weights.shape[1], len(rows)))
    for b in blocks(len(rows)):
        block = rows[b]
        ws = Workspace(net, columns(np.repeat(block, 2, axis=0) if len(block) == 1 else block))
        out[:, b] = ws.forward()[:, : len(block)]
    return out.T


def mlp_forward(layers: Sequence[MlpLayer], x: np.ndarray) -> np.ndarray:
    """Chain the layers over a batch (N, D) in `blocks`; returns (N, outputs).

    Each block runs padded with copies of its last row to a multiple of 8
    rows: past its small-matrix size OpenBLAS's dgemm sums a product's last
    n mod 8 columns in another kernel, which rounds them otherwise, and at
    the arvtdnn and dnn shapes differently at one thread and at two
    (OpenBLAS 0.3.31)."""
    return _predict(Net.of(layers), np.asarray(x, dtype=float),
                    lambda rows: np.pad(rows, ((0, -len(rows) % 8), (0, 0)), mode="edge").T)


def mlp_init(widths: Sequence[int], hidden_act: Activation, seed: int = 0) -> list[MlpLayer]:
    """Glorot-initialized MLP; all hidden layers share one activation, and
    the output layer is linear."""
    if len(widths) < 2:
        raise ValueError("widths must list at least input and output sizes")
    rng = np.random.default_rng(seed)
    layers = []
    for j in range(len(widths) - 1):
        n_in, n_out = widths[j], widths[j + 1]
        act = LINEAR if j == len(widths) - 2 else hidden_act
        layers.append(MlpLayer(_glorot(rng, (n_in, n_out), n_in, n_out), np.zeros(n_out), act))
    return layers


def save_params(params: ConvNetParams, arch: ConvNetArch, path) -> None:
    """JSON checkpoint: arch block plus flat weight arrays (C-order ravel)."""
    doc = {
        "arch": codec.to_dict(arch),
        "weights": {
            f.name: [float(v) for v in getattr(params, f.name).ravel()] for f in fields(params)
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_params(path) -> tuple[ConvNetParams, ConvNetArch]:
    doc = json.loads(Path(path).read_text())
    arch = codec.from_dict(ConvNetArch, doc["arch"], path="arch")
    w = doc["weights"]
    params = ConvNetParams(**{
        name: np.asarray(w[name], dtype=float).reshape(shape)
        for name, shape in ConvNetParams.shapes(arch).items()
    })
    return params, arch
