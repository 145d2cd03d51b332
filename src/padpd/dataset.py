"""Feature graphs and train/test datasets for the behavioral models.

A feature graph for time n is a 5 x (M+1) real matrix. Columns run
newest-first (n, n-1, ..., n-M); rows hold I, Q, |x|, |x|^2 and |x|^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import ComplexSeq

__all__ = [
    "Dataset",
    "feature_graphs",
    "build_dataset",
    "split_indices",
    "dpd_dataset",
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
    v = x.data[start - memory_depth : start + count]
    env = np.abs(v)
    rows = np.stack([v.real, v.imag, env, env**2, env**3])
    windows = np.lib.stride_tricks.sliding_window_view(rows, memory_depth + 1, axis=1)[:, :, ::-1]
    return windows.transpose(1, 0, 2).copy()


def _joint_scale(x: ComplexSeq, y: ComplexSeq) -> float:
    return 1.0 / max(x.peak(), y.peak())


def build_dataset(
    x: ComplexSeq,
    y: ComplexSeq,
    memory_depth: int,
    count: int,
    split_seed: int,
) -> tuple[Dataset, Dataset]:
    """Graphs from x, labels (I, Q) from y, shuffled 3:2 train/test.

    Both sequences are jointly peak-normalized first (shared scale, so an
    inverse model trained on the result stays consistent with the forward
    scale). Graphs cover n = M..M+count-1; the first M samples are skipped
    rather than zero-padded.
    """
    if len(x) != len(y):
        raise ValueError(f"input and output lengths differ: {len(x)} vs {len(y)}")
    if len(x) < count + memory_depth:
        raise ValueError(
            f"need at least count+M = {count + memory_depth} samples, have {len(x)}"
        )
    scale = _joint_scale(x, y)
    xs = x.scaled(scale)
    ys = y.data * scale

    graphs = feature_graphs(xs, memory_depth, count, memory_depth)
    n_idx = memory_depth + np.arange(count)
    labels = np.column_stack([ys.real[n_idx], ys.imag[n_idx]])

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


def dpd_dataset(
    y_pa: ComplexSeq,
    x_in: ComplexSeq,
    gain: float,
    memory_depth: int,
    count: int,
    split_seed: int,
) -> tuple[Dataset, Dataset]:
    """Indirect-learning dataset: graphs from y_pa/gain, labels from x_in."""
    if not gain > 0:
        raise ValueError(f"gain must be positive, got {gain}")
    return build_dataset(y_pa.scaled(1.0 / gain), x_in, memory_depth, count, split_seed)
