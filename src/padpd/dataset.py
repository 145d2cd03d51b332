"""Feature graphs and train/test datasets for the behavioral models.

A feature graph for time n is a 5 x (M+1) real matrix. Columns run
newest-first (n, n-1, ..., n-M); rows hold I, Q, |x|, |x|^2 and |x|^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import ComplexSeq, _peak

__all__ = [
    "Dataset",
    "feature_graphs",
    "sample_features",
    "build_dataset",
    "joint_scale",
    "split_indices",
]

N_FEATURE_ROWS = 5
TRAIN_FRACTION_NUM = 3  # train:test = 3:2
TRAIN_FRACTION_DEN = 5


@dataclass(frozen=True)
class Dataset:
    """Shuffled split of feature graphs and I/Q labels.

    ``scale`` is the joint peak-normalization factor that was applied to both
    the input and output sequences before graphs were built.
    """

    graphs: np.ndarray  # (n, 5, M+1)
    labels: np.ndarray  # (n, 2)
    split_tag: str
    scale: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.graphs, dtype=float)
        lab = np.asarray(self.labels, dtype=float)
        if g.ndim != 3 or g.shape[1] != N_FEATURE_ROWS:
            raise ValueError(f"graphs must have shape (n, 5, M+1), got {g.shape}")
        if lab.shape != (g.shape[0], 2):
            raise ValueError(f"labels must have shape (n, 2), got {lab.shape}")
        if self.split_tag not in ("train", "test"):
            raise ValueError(f"split_tag must be 'train' or 'test', got {self.split_tag!r}")
        object.__setattr__(self, "graphs", g)
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.graphs.shape[0]

    @property
    def memory_depth(self) -> int:
        return self.graphs.shape[2] - 1


def sample_features(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each sample's five features, rows I, Q, |x|, |x|^2 and |x|^3 of a
    (5, len(v)) array, written into ``out`` when it is given."""
    if out is None:
        out = np.empty((N_FEATURE_ROWS, v.size))
    out[0], out[1] = v.real, v.imag
    env = np.abs(v, out=out[2])
    np.square(env, out=out[3])  # what env**2 computes
    np.power(env, 3, out=out[4])
    return out


def feature_graphs(x: ComplexSeq, start: int, count: int, memory_depth: int) -> np.ndarray:
    """Graphs for n = start..start+count-1, shape (count, 5, M+1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if memory_depth < 0:
        raise ValueError("memory_depth must be >= 0")
    if start < memory_depth:
        raise ValueError("start must be >= memory_depth (no zero-padded warm-up rows)")
    if start + count > len(x):
        raise ValueError("requested graphs run past the end of the signal")
    # Each sample's five features once, then every graph a newest-first window of them.
    rows = sample_features(x.data[start - memory_depth : start + count])
    windows = np.lib.stride_tricks.sliding_window_view(rows, memory_depth + 1, axis=1)[:, :, ::-1]
    return windows.transpose(1, 0, 2).copy()


def joint_scale(x: ComplexSeq, y: ComplexSeq, memory_depth: int, count: int,
                x_gain: float | None = None) -> float:
    """The shared peak-normalization factor of x and y, once both are known
    to hold the ``count`` rows of a dataset of memory depth M. With
    ``x_gain``, x's peak is that of x * (1 / x_gain), as `build_dataset`
    reads it."""
    if len(x) != len(y):
        raise ValueError(f"input and output lengths differ: {len(x)} vs {len(y)}")
    if len(x) < count + memory_depth:
        raise ValueError(
            f"need at least count+M = {count + memory_depth} samples, have {len(x)}"
        )
    x_peak = x.peak() if x_gain is None else _peak(x.data, 1.0 / x_gain)
    return 1.0 / max(x_peak, y.peak())


def build_dataset(
    x: ComplexSeq,
    y: ComplexSeq,
    memory_depth: int,
    count: int,
    split_seed: int,
    x_gain: float | None = None,
) -> tuple[Dataset, Dataset]:
    """Graphs from x, labels (I, Q) from y, shuffled 3:2 train/test.

    Both sequences are jointly peak-normalized first (shared scale, so an
    inverse model trained on the result stays consistent with the forward
    scale). Graphs cover n = M..M+count-1; the first M samples are skipped
    rather than zero-padded. With ``x_gain`` the graphs come from x *
    (1 / x_gain): indirect learning's input, the PA output over its linear
    gain. The peaks are taken over the whole of both sequences, but only the
    M + count samples the graphs and labels read are scaled.
    """
    scale = joint_scale(x, y, memory_depth, count, x_gain)
    head = memory_depth + count
    xs = x.data[:head] if x_gain is None else x.data[:head] * (1.0 / x_gain)
    xs = x.with_data(xs * scale)
    ys = y.data[:head] * scale

    graphs = feature_graphs(xs, memory_depth, count, memory_depth)
    labels = np.column_stack([ys.real[memory_depth:], ys.imag[memory_depth:]])

    tr, te = split_indices(count, split_seed)
    train = Dataset(graphs[tr], labels[tr], "train", scale)
    test = Dataset(graphs[te], labels[te], "test", scale)
    return train, test


def split_indices(count: int, split_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled 3:2 train/test row indices (relative, 0..count-1).

    This is the split used by build_dataset; exposing it lets other model
    families (e.g. the memory-polynomial baseline) train and score on the
    exact same samples.
    """
    if count < 2:
        raise ValueError("count must be >= 2 to split")
    perm = np.random.default_rng(split_seed).permutation(count)
    n_train = (count * TRAIN_FRACTION_NUM) // TRAIN_FRACTION_DEN
    return perm[:n_train], perm[n_train:]
