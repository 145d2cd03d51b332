"""Forward passes for the convolutional behavioral model and plain MLPs.

The conv model runs a valid (no padding, stride 1) cross-correlation over the
5 x (M+1) feature graph, giving L maps of shape B x C with B = 5-r+1 and
C = (M+1)-s+1. Maps are flattened kernel-major (then row-major inside a map)
and feed the dense head: a T-neuron fully connected layer and a 2-neuron
linear output for I and Q. The head is an ordinary MLP layer stack, so the
conv model and the MLP baselines share one forward pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import codec

__all__ = [
    "Activation",
    "ConvNetArch",
    "ConvNetParams",
    "conv_forward",
    "forward",
    "forward_batch",
    "init_params",
    "MlpLayer",
    "conv_head",
    "mlp_forward",
    "mlp_forward_parts",
    "mlp_init",
    "save_params",
    "load_params",
]

N_INPUT_ROWS = 5
N_OUTPUTS = 2

ACTIVATION_KINDS = ("sigmoid", "relu", "elu", "leaky_relu", "tanh", "linear")


@dataclass(frozen=True)
class Activation:
    """Pointwise activation with its derivative.

    ``alpha`` scales the negative branch of elu; ``leak`` is the negative
    slope of leaky_relu. Both are ignored by the other kinds.
    """

    kind: str
    alpha: float = 1.0
    leak: float = 0.01

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}, expected one of {ACTIVATION_KINDS}")
        if not self.alpha > 0:
            raise ValueError("elu alpha must be positive")
        if not 0.0 < self.leak < 1.0:
            raise ValueError("leaky_relu slope must lie in (0, 1)")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == "sigmoid":
            return expit(v)
        if self.kind == "relu":
            return np.maximum(v, 0.0)
        if self.kind == "elu":
            return np.where(v >= 0.0, v, self.alpha * np.expm1(np.minimum(v, 0.0)))
        if self.kind == "leaky_relu":
            return np.where(v > 0.0, v, self.leak * v)
        if self.kind == "tanh":
            return np.tanh(v)
        return v.copy()

    def derivative(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == "sigmoid":
            s = expit(v)
            return s * (1.0 - s)
        if self.kind == "relu":
            return (v > 0.0).astype(float)
        if self.kind == "elu":
            return np.where(v >= 0.0, 1.0, self.alpha * np.exp(np.minimum(v, 0.0)))
        if self.kind == "leaky_relu":
            return np.where(v > 0.0, 1.0, self.leak)
        if self.kind == "tanh":
            t = np.tanh(v)
            return 1.0 - t * t
        return np.ones_like(v)

    def derivative_from_output(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """`derivative` at ``v``, given ``out = self(v)`` from the forward pass.

        tanh and sigmoid take it from ``out`` alone, so the backward pass does
        not evaluate them a second time; the values equal `derivative` bit for
        bit. The other kinds compute it from ``v``.
        """
        if self.kind == "sigmoid":
            return out * (1.0 - out)
        if self.kind == "tanh":
            return 1.0 - out * out
        return self.derivative(v)


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
        if not 1 <= self.kernel_rows <= N_INPUT_ROWS:
            raise ValueError(f"kernel_rows must lie in 1..{N_INPUT_ROWS}")
        if not 1 <= self.kernel_cols <= self.memory_depth + 1:
            raise ValueError("kernel_cols must lie in 1..memory_depth+1")
        if self.n_kernels < 1:
            raise ValueError("n_kernels must be >= 1")
        if self.fc_neurons < 1:
            raise ValueError("fc_neurons must be >= 1")

    @property
    def map_rows(self) -> int:
        return N_INPUT_ROWS - self.kernel_rows + 1

    @property
    def map_cols(self) -> int:
        return (self.memory_depth + 1) - self.kernel_cols + 1

    @property
    def n_flat_features(self) -> int:
        return self.n_kernels * self.map_rows * self.map_cols

    @property
    def input_shape(self) -> tuple[int, int]:
        return (N_INPUT_ROWS, self.memory_depth + 1)


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

    @classmethod
    def from_list(cls, arrays: Sequence[np.ndarray]) -> "ConvNetParams":
        return cls(*arrays)

    @property
    def n_coefficients(self) -> int:
        return sum(a.size for a in self.as_list())

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


@dataclass(frozen=True)
class _ForwardParts:
    """Conv front end intermediates, the dense head, and the head's per-layer
    pre-activations and activations (``acts[0]`` is the flattened maps,
    ``acts[-1]`` the output). ``pre_maps`` and ``maps`` are (L, N*B*C), one
    row per kernel, one column per `_im2col` row."""

    pre_maps: np.ndarray
    maps: np.ndarray
    head: list
    pres: list
    acts: list

    @property
    def outputs(self) -> np.ndarray:
        return self.acts[-1]


# Graphs per `forward_batch` block: bounds the im2col rows a long input
# (a whole DPD drive) holds at once.
_FORWARD_BLOCK_ROWS = 16384


def _as_graphs(graphs, arch: ConvNetArch) -> np.ndarray:
    graphs = np.asarray(graphs, dtype=float)
    if graphs.ndim != 3 or graphs.shape[1:] != arch.input_shape:
        raise ValueError(
            f"graphs must have shape (n, {arch.input_shape[0]}, {arch.input_shape[1]}), got {graphs.shape}"
        )
    return graphs


def _im2col(graphs: np.ndarray, arch: ConvNetArch) -> np.ndarray:
    """Unrolled convolution input, shape (N*B*C, r*s+1).

    Row (n, b, c) holds the taps of graph n's kernel window at map cell
    (b, c), in kernel row-major order, then a 1. The forward pass is one GEMM,
    ``[K | b] @ cols.T``, for the convolution plus its bias; the backward
    pass is one GEMM, ``d_pre @ cols``, for the kernel and bias gradients.
    """
    graphs = _as_graphs(graphs, arch)
    r, s, b, c = arch.kernel_rows, arch.kernel_cols, arch.map_rows, arch.map_cols
    cols = np.empty((graphs.shape[0], b, c, r * s + 1))
    for u in range(r):
        for v in range(s):
            cols[..., u * s + v] = graphs[:, u : u + b, v : v + c]
    cols[..., -1] = 1.0
    return cols.reshape(-1, r * s + 1)


def _maps_to_flat(maps: np.ndarray, arch: ConvNetArch) -> np.ndarray:
    """(L, N*B*C) maps as the head's kernel-major (N, L*B*C) input."""
    bc = arch.map_rows * arch.map_cols
    return maps.reshape(arch.n_kernels, -1, bc).transpose(1, 0, 2).reshape(-1, arch.n_flat_features)


def _flat_to_maps(flat: np.ndarray, arch: ConvNetArch) -> np.ndarray:
    """The inverse of `_maps_to_flat`: (N, L*B*C) back to (L, N*B*C)."""
    bc = arch.map_rows * arch.map_cols
    return flat.reshape(-1, arch.n_kernels, bc).transpose(1, 0, 2).reshape(arch.n_kernels, -1)


def _forward_cols(params: ConvNetParams, arch: ConvNetArch, cols: np.ndarray) -> _ForwardParts:
    """The forward pass from the `_im2col` rows of a batch of graphs."""
    ker = params.conv_kernels
    ker_bias = np.column_stack([ker.reshape(ker.shape[0], -1), params.conv_biases])  # [K | b]
    pre = ker_bias @ cols.T
    maps = arch.conv_activation(pre)
    head = conv_head(arch, params.fc_weights, params.fc_biases, params.out_weights, params.out_biases)
    pres, acts = mlp_forward_parts(head, _maps_to_flat(maps, arch))
    return _ForwardParts(pre, maps, head, pres, acts)


def conv_forward(graph: np.ndarray, params: ConvNetParams, arch: ConvNetArch) -> np.ndarray:
    """Feature maps (L, B, C) of one graph after the conv activation."""
    graph = np.asarray(graph, dtype=float)
    if graph.shape != arch.input_shape:
        raise ValueError(f"graph has shape {graph.shape}, expected {arch.input_shape}")
    return forward_batch(params, arch, graph[None], features=True)[0].reshape(
        arch.n_kernels, arch.map_rows, arch.map_cols)


def forward_batch(params: ConvNetParams, arch: ConvNetArch, graphs: np.ndarray,
                  features: bool = False) -> np.ndarray:
    """Model outputs, shape (n, 2) with columns (I, Q).

    With ``features`` it returns the head's input instead: the activated
    feature maps, kernel-major, shape (n, L*B*C). Graphs go through in blocks
    of `_FORWARD_BLOCK_ROWS`, so only one block's unrolled windows are held
    at a time, however long the input.
    """
    params.check_shapes(arch)
    graphs = _as_graphs(graphs, arch)
    n = graphs.shape[0]
    out = np.empty((n, arch.n_flat_features if features else N_OUTPUTS))
    for start in range(0, n, _FORWARD_BLOCK_ROWS):
        block = graphs[start : start + _FORWARD_BLOCK_ROWS]
        # numpy sends a one-row product to gemv, whose sums round unlike
        # gemm's; a lone graph runs as two copies, so that `forward` gives
        # the bytes of the same graph's row in a larger batch.
        cols = _im2col(block if len(block) > 1 else np.repeat(block, 2, axis=0), arch)
        parts = _forward_cols(params, arch, cols)
        out[start : start + len(block)] = (parts.acts[0] if features else parts.outputs)[: len(block)]
    return out


def forward(params: ConvNetParams, arch: ConvNetArch, graph: np.ndarray) -> tuple[float, float]:
    out = forward_batch(params, arch, np.asarray(graph, dtype=float)[None])[0]
    return float(out[0]), float(out[1])


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
        w = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.biases, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValueError("layer weights must be (n_in, n_out) with matching biases")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)


def conv_head(arch: ConvNetArch, fc_weights, fc_biases, out_weights, out_biases) -> list[MlpLayer]:
    """The conv model's dense head as a layer stack: FC layer, linear output."""
    return [MlpLayer(fc_weights, fc_biases, arch.fc_activation), MlpLayer(out_weights, out_biases, LINEAR)]


def mlp_forward_parts(layers: Sequence[MlpLayer], x: np.ndarray) -> tuple[list, list]:
    """Per-layer pre-activations and activations over a batch (N, D).

    ``acts`` has one more entry than ``pres``: ``acts[0]`` is the input.
    """
    acts = [x]
    pres = []
    for layer in layers:
        if acts[-1].shape[1] != layer.weights.shape[0]:
            raise ValueError(
                f"layer expects {layer.weights.shape[0]} inputs, got {acts[-1].shape[1]}"
            )
        pres.append(acts[-1] @ layer.weights + layer.biases)
        acts.append(layer.act(pres[-1]))
    return pres, acts


def mlp_forward(layers: Sequence[MlpLayer], x: np.ndarray) -> np.ndarray:
    """Chain the layers over a single vector (D,) or a batch (N, D)."""
    x = np.asarray(x, dtype=float)
    out = mlp_forward_parts(layers, x[None] if x.ndim == 1 else x)[1][-1]
    return out[0] if x.ndim == 1 else out


def mlp_init(widths: Sequence[int], hidden_act: Activation, seed: int = 0,
             out_act: Activation = LINEAR) -> list[MlpLayer]:
    """Glorot-initialized MLP; all hidden layers share one activation."""
    if len(widths) < 2:
        raise ValueError("widths must list at least input and output sizes")
    rng = np.random.default_rng(seed)
    layers = []
    for j in range(len(widths) - 1):
        n_in, n_out = widths[j], widths[j + 1]
        act = out_act if j == len(widths) - 2 else hidden_act
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
