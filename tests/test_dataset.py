"""Tests for feature-graph construction and dataset splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padpd import experiment
from padpd.dataset import (
    Dataset,
    build_dataset,
    feature_graphs,
    joint_scale,
    split_indices,
)
from padpd.experiment import ExperimentConfig, train_dpd
from padpd.network import _BLOCK_SAMPLES, ConvNetArch
from padpd.signals import ComplexSeq
from padpd.training import AdamConfig, LmConfig


def build_feature_graph(x, n, memory_depth):
    """The oracle for `feature_graphs`: sample n's graph built on its own,
    columns newest-first, rows I, Q, |x|, |x|^2, |x|^3."""
    window = x.data[n - np.arange(memory_depth + 1)]
    env = np.abs(window)
    return np.stack([window.real, window.imag, env, env**2, env**3])


def test_feature_graph_rows_and_column_order():
    x = ComplexSeq(np.array([1 + 1j, 2 - 1j, 0.5j, -0.25, 3 + 4j]))
    m = 2
    g = build_feature_graph(x, 4, m)
    assert g.shape == (5, m + 1)
    # columns newest-first: n, n-1, n-2
    window = x.data[[4, 3, 2]]
    env = np.abs(window)
    assert np.array_equal(g[0], window.real)
    assert np.array_equal(g[1], window.imag)
    assert np.array_equal(g[2], env)
    assert np.array_equal(g[3], env**2)
    assert np.array_equal(g[4], env**3)


def test_feature_graph_bounds():
    x = ComplexSeq(np.arange(1, 7, dtype=complex))
    with pytest.raises(ValueError, match="count"):
        feature_graphs(x, 3, 0, 2)  # no graphs asked for
    with pytest.raises(ValueError, match="memory_depth must be >= 0"):
        feature_graphs(x, 3, 1, -1)
    with pytest.raises(ValueError, match="start must be"):
        feature_graphs(x, 1, 1, 3)  # not enough history
    with pytest.raises(ValueError, match="past the end"):
        feature_graphs(x, 6, 1, 2)
    assert feature_graphs(x, 5, 1, 2).shape == (1, 5, 3)  # the last sample
    assert feature_graphs(x, 3, 1, 0).shape == (1, 5, 1)


def test_feature_graphs_batch_matches_single():
    rng = np.random.default_rng(0)
    x = ComplexSeq(rng.standard_normal(30) + 1j * rng.standard_normal(30))
    batch = feature_graphs(x, 4, 10, 3)
    assert batch.shape == (10, 5, 4)
    for k in range(10):
        assert np.array_equal(batch[k], build_feature_graph(x, 4 + k, 3))
    with pytest.raises(ValueError):
        feature_graphs(x, 2, 5, 3)
    with pytest.raises(ValueError):
        feature_graphs(x, 25, 10, 3)


@settings(max_examples=80, deadline=None)
@given(memory_depth=st.integers(0, 6), offset=st.integers(0, 20), count=st.integers(1, 40),
       tail=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_feature_graphs_match_oracle(memory_depth, offset, count, tail, seed):
    """Every graph of a batch equals the oracle's, byte for byte, over depths,
    start offsets past the warm-up, and counts up to the signal's end."""
    rng = np.random.default_rng(seed)
    n = memory_depth + offset + count + tail
    x = ComplexSeq(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    start = memory_depth + offset
    batch = feature_graphs(x, start, count, memory_depth)
    assert batch.shape == (count, 5, memory_depth + 1)
    for k in range(count):
        assert np.array_equal(batch[k], build_feature_graph(x, start + k, memory_depth))


def gathered_feature_graphs(x, start, count, memory_depth):
    """The reference batch layout: every (row, tap) sample gathered by a fancy
    index and its features taken per gathered sample, M+1 times each."""
    v = x.data
    idx = (start + np.arange(count))[:, None] - np.arange(memory_depth + 1)[None, :]
    env = np.abs(v[idx])
    return np.stack([v.real[idx], v.imag[idx], env, env**2, env**3], axis=1)


@pytest.mark.parametrize("memory_depth", [0, 3])
def test_feature_graphs_full_block(memory_depth):
    """A full block of `apply_dpd` rows plus a tail, so `abs` and the powers
    run their long vector loops: byte-equal to the gathered layout,
    C-contiguous, and equal to the oracle on sampled rows."""
    rng = np.random.default_rng(memory_depth)
    count = _BLOCK_SAMPLES + 1237
    n = memory_depth + 5 + count + 3
    x = ComplexSeq(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    start = memory_depth + 5
    batch = feature_graphs(x, start, count, memory_depth)
    want = gathered_feature_graphs(x, start, count, memory_depth)
    assert batch.shape == want.shape and batch.flags.c_contiguous
    assert batch.tobytes() == want.tobytes()
    for k in (0, 1, _BLOCK_SAMPLES - 1, _BLOCK_SAMPLES, *rng.integers(0, count, 20), count - 1):
        assert np.array_equal(batch[k], build_feature_graph(x, start + k, memory_depth))


def test_split_indices_partition_and_determinism():
    tr, te = split_indices(1000, 17)
    assert len(tr) == 600 and len(te) == 400  # 3:2
    assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(1000))
    tr2, te2 = split_indices(1000, 17)
    assert np.array_equal(tr, tr2) and np.array_equal(te, te2)
    tr3, _ = split_indices(1000, 18)
    assert not np.array_equal(tr, tr3)


def test_build_dataset_alignment_and_scale():
    rng = np.random.default_rng(1)
    n = 220
    x = ComplexSeq(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    y = ComplexSeq(2.5 * x.data + 0.1)
    m, count, seed = 3, 200, 5
    train, test = build_dataset(x, y, m, count, seed)

    scale = 1.0 / max(x.peak(), y.peak())
    assert train.scale == pytest.approx(scale)
    assert test.scale == train.scale
    assert len(train) == 120 and len(test) == 80
    assert train.memory_depth == m

    # reassemble in original order and check labels/graphs line up with n
    tr, te = split_indices(count, seed)
    graphs = np.empty((count, 5, m + 1))
    labels = np.empty((count, 2))
    graphs[tr], labels[tr] = train.graphs, train.labels
    graphs[te], labels[te] = test.graphs, test.labels
    xs = x.scaled(scale)
    for n_abs in (m, m + 7, count + m - 1):
        k = n_abs - m
        assert np.array_equal(graphs[k], build_feature_graph(xs, n_abs, m))
        assert labels[k, 0] == pytest.approx(scale * y.data[n_abs].real)
        assert labels[k, 1] == pytest.approx(scale * y.data[n_abs].imag)


def test_build_dataset_validation():
    x = ComplexSeq(np.ones(10, dtype=complex))
    with pytest.raises(ValueError):
        build_dataset(x, ComplexSeq(np.ones(9, dtype=complex)), 2, 5, 0)
    with pytest.raises(ValueError):
        build_dataset(x, x, 3, 8, 0)  # needs count+M = 11 samples
    # the scale alone makes the same checks
    with pytest.raises(ValueError, match="lengths differ"):
        joint_scale(x, ComplexSeq(np.ones(9, dtype=complex)), 2, 5)
    with pytest.raises(ValueError, match=r"count\+M = 11"):
        joint_scale(x, x, 3, 8)
    y = x.with_data(4.0 * x.data)
    assert joint_scale(x, y, 3, 7) == build_dataset(x, y, 3, 7, 0)[0].scale == 0.25
    with pytest.raises(TypeError):  # scale is keyword-only
        Dataset(np.zeros((4, 5, 3)), np.zeros((4, 2)), 1.0)


def test_dpd_dataset_normalizes_by_gain(monkeypatch):
    """`train_dpd` builds its dataset from the PA output over the linear gain
    (graphs) and the drive (labels)."""
    rng = np.random.default_rng(2)
    n = 120
    x = ComplexSeq(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    y = ComplexSeq(2.0 * x.data)  # a gain the least-squares estimate hits exactly
    m, count = 2, 100
    built = []

    def recording_build(*args):
        built.append(build_dataset(*args))
        return built[-1]

    monkeypatch.setattr(experiment, "build_dataset", recording_build)
    cfg = ExperimentConfig(arch=ConvNetArch(memory_depth=m, kernel_cols=3), adam=AdamConfig(max_iters=1),
                           lm=LmConfig(max_iters=1), dataset_count=count, segment=64)
    _, gain, scale, _ = train_dpd(cfg, x, y)
    ((train, test),) = built
    ref_train, ref_test = build_dataset(y.scaled(1 / 2.0), x, m, count, 0)
    assert gain == 2.0 and scale == ref_train.scale
    assert np.array_equal(train.graphs, ref_train.graphs)
    assert np.array_equal(train.labels, ref_train.labels)
    assert np.array_equal(test.graphs, ref_test.graphs)
    with pytest.raises(ValueError):
        train_dpd(cfg, x, y.with_data(np.zeros(n, dtype=complex)))  # zero gain
