"""Tests for the GMP and fully connected baseline models."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padpd.baselines import (
    _QR_BLOCK,
    GmpConfig,
    GmpFitError,
    GmpModel,
    MLP_BASELINES,
    _column_specs,
    gmp_basis_at,
    gmp_fit_ls,
    gmp_table_config,
    mlp_baseline_spec,
    mlp_features_from_graphs,
    save_gmp,
)
from padpd.codec import from_dict
from padpd.dataset import build_dataset, split_indices
from padpd.metrics import nmse_db
from padpd.network import mlp_forward
from padpd.pa import ImpairmentConfig, default_pa, transmit_chain
from padpd.signals import ComplexSeq, OfdmConfig, generate_ofdm
from padpd.training import AdamConfig, train_mlp_baseline


def reference_basis_row(x, cfg, n):
    """Direct enumeration of one basis row, mirroring the block definitions."""
    env = np.abs(x)
    row = []
    for l in range(cfg.la):
        for k in range(cfg.ka):
            row.append(x[n - l] * env[n - l] ** k)
    for l in range(cfg.lb):
        for m in range(1, cfg.mb + 1):
            for k in range(1, cfg.kb + 1):
                row.append(x[n - l] * env[n - l - m] ** k)
    for l in range(cfg.lc):
        for m in range(1, cfg.mc + 1):
            for k in range(1, cfg.kc + 1):
                row.append(x[n - l] * env[n - l + m] ** k)
    return np.array(row)


def test_config_term_counts_and_reach():
    cfg = gmp_table_config()
    assert (cfg.ka, cfg.la, cfg.kb, cfg.lb, cfg.mb, cfg.kc, cfg.lc, cfg.mc) == (
        11, 7, 3, 2, 5, 2, 0, 3,
    )
    assert cfg.n_terms == 11 * 7 + 3 * 2 * 5 + 0  # 107 complex terms
    assert cfg.max_past == max(7 - 1, 2 - 1 + 5)  # lagging block reaches deepest
    assert cfg.max_future == 0  # leading block is empty (lc = 0)

    lead = GmpConfig(ka=2, la=2, kc=2, lc=2, mc=3)
    assert lead.n_terms == 4 + 12
    assert lead.max_future == 3

    with pytest.raises(ValueError):
        GmpConfig()  # zero terms
    with pytest.raises(ValueError):
        GmpConfig(ka=-1, la=2)


def valid_indices(cfg, n_samples):
    """Every sample index whose terms all stay inside the signal."""
    return np.arange(cfg.max_past, n_samples - cfg.max_future)


def test_valid_indices_window():
    cfg = GmpConfig(ka=2, la=3, kb=1, lb=1, mb=2, kc=1, lc=1, mc=2)
    # max_past = max(2, 0+2, 0) = 2; max_future = 2
    x = ComplexSeq(np.arange(1, 11) * (1 + 1j))
    assert valid_indices(cfg, 10).tolist() == [2, 3, 4, 5, 6, 7]
    assert gmp_basis_at(x, cfg, valid_indices(cfg, 10)).shape == (6, cfg.n_terms)
    for outside in (1, 8):  # one step past either end of the window
        with pytest.raises(ValueError, match="outside the signal"):
            gmp_basis_at(x, cfg, np.array([outside]))


def test_basis_matches_reference_enumeration():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    seq = ComplexSeq(x)
    cfg = GmpConfig(ka=3, la=2, kb=2, lb=2, mb=2, kc=2, lc=1, mc=2)
    idx = valid_indices(cfg, 40)
    basis = gmp_basis_at(seq, cfg, idx)
    assert basis.shape == (idx.size, cfg.n_terms)
    for n in (idx[0], idx[3], idx[-1]):
        ref = reference_basis_row(x, cfg, n)
        got = gmp_basis_at(seq, cfg, np.array([n]))[0]
        assert np.allclose(got, ref, rtol=1e-12)
    with pytest.raises(ValueError):
        gmp_basis_at(seq, cfg, np.array([1]))  # inside the warm-up region


@pytest.mark.parametrize("cfg", [gmp_table_config(), GmpConfig(ka=2, la=3, kb=2, lb=2, mb=3, kc=3, lc=2, mc=4)],
                         ids=["table", "leading"])
def test_basis_at_scattered_indices_follows_the_formula(cfg):
    """Indices in the train split's pattern (shuffled, not contiguous), with
    repeats and both ends of the valid window, give each column's formula
    byte for byte, in a C-ordered matrix: the power table and the delayed
    signal are offset by the lowest index's reach, not by 0."""
    rng = np.random.default_rng(3)
    n_samples = 900
    x = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    first, last = cfg.max_past, n_samples - cfg.max_future - 1
    train, _ = split_indices(600, 4)
    idx = np.concatenate([train + 150, [last, first + 40, last, first + 40], train[:7] + 150])
    rng.shuffle(idx)
    for n in (idx, np.array([first, last]), np.array([last, first])):
        basis = gmp_basis_at(ComplexSeq(x), cfg, n)
        assert basis.flags.c_contiguous and basis.shape == (n.size, cfg.n_terms)
        for j, (l, d, k) in enumerate(_column_specs(cfg)):
            assert basis[:, j].tobytes() == (x[n - l] * np.abs(x[n - d]) ** k).tobytes()


# (ka, la, kb, lb, mb, kc, lc, mc) with at least one term
_SMALL_GMPS = st.tuples(*[st.integers(0, 3)] * 8).filter(
    lambda v: v[0] * v[1] + v[2] * v[3] * v[4] + v[5] * v[6] * v[7]).map(lambda v: GmpConfig(*v))


@settings(max_examples=80, deadline=None)
@given(cfg=_SMALL_GMPS, extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_basis_columns_follow_their_formula(cfg, extra, seed):
    """Column j is x(n-l)|x(n-d)|^k for the j-th (l, d, k) of `_column_specs`,
    and the columns are the block definitions in order, at every valid n."""
    rng = np.random.default_rng(seed)
    n_samples = cfg.max_past + cfg.max_future + 1 + extra
    x = rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
    idx = valid_indices(cfg, n_samples)
    basis = gmp_basis_at(ComplexSeq(x), cfg, idx)
    specs = _column_specs(cfg)
    assert basis.shape == (idx.size, cfg.n_terms) and len(specs) == cfg.n_terms
    for j, (l, d, k) in enumerate(specs):
        assert np.array_equal(basis[:, j], x[idx - l] * np.abs(x[idx - d]) ** k)
    ref = np.array([reference_basis_row(x, cfg, n) for n in idx])
    np.testing.assert_allclose(basis, ref, rtol=1e-12)


@pytest.mark.parametrize("n_rows", [
    2997, 500, _QR_BLOCK - 1, _QR_BLOCK, _QR_BLOCK + 1, 3 * _QR_BLOCK,
], ids=["2997", "below-one-block", "block-1", "block", "block+1", "three-blocks"])
def test_fit_recovers_known_model(n_rows):
    cfg = GmpConfig(ka=3, la=2, kb=2, lb=2, mb=2)
    rng = np.random.default_rng(1)
    n_samples = n_rows + cfg.max_past
    x = 0.7 * (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
    seq = ComplexSeq(x)
    true_coeffs = rng.standard_normal(cfg.n_terms) + 1j * rng.standard_normal(cfg.n_terms)
    basis = gmp_basis_at(seq, cfg, valid_indices(cfg, len(seq)))
    assert basis.shape[0] == n_rows
    y = basis @ true_coeffs

    model = gmp_fit_ls(basis, y, cfg=cfg)
    assert np.allclose(model.coeffs, true_coeffs, atol=1e-8)
    assert nmse_db(basis @ model.coeffs, y) <= -100

    # ridge keeps the solution close on a well-conditioned problem
    ridged = gmp_fit_ls(basis, y, ridge=1e-10, cfg=cfg)
    assert np.allclose(ridged.coeffs, true_coeffs, atol=1e-6)


@pytest.mark.parametrize("case, ridge", [(1, 0.0), (2, 0.0), (3, 0.0), (1, 1e-8)])
def test_fit_matches_lstsq_on_an_ofdm_drive(case, ridge):
    """The table config on a PA's OFDM input and output: the blocked QR's
    coefficients and train NMSE are lstsq's, on a basis of condition number
    near 1e9 and over nine row blocks. With ridge, lstsq solves the basis
    stacked over sqrt(ridge)·I rows, with zero targets."""
    cfg = gmp_table_config()
    x = generate_ofdm(OfdmConfig(n_symbols=27, seed=5))
    y = transmit_chain(default_pa(), x, ImpairmentConfig.case(case))
    scale = 1.0 / max(x.peak(), y.peak())
    idx = valid_indices(cfg, len(x))
    basis = gmp_basis_at(x.scaled(scale), cfg, idx)
    target = y.data[idx] * scale
    assert basis.shape[0] > 8 * _QR_BLOCK

    model = gmp_fit_ls(basis, target, cfg, ridge)
    eye = np.sqrt(ridge) * np.eye(cfg.n_terms)
    ref = np.linalg.lstsq(np.vstack([basis, eye]), np.concatenate([target, np.zeros(cfg.n_terms)]),
                          rcond=None)[0]
    np.testing.assert_allclose(model.coeffs, ref, rtol=1e-6, atol=0)
    assert abs(nmse_db(basis @ model.coeffs, target) - nmse_db(basis @ ref, target)) <= 1e-6


@pytest.mark.parametrize("n_rows", [50, 5000])
def test_fit_rejects_rank_deficiency_without_ridge(n_rows):
    rng = np.random.default_rng(2)
    col = rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows)
    basis = np.column_stack([col, col])  # exactly collinear
    y = 3.0 * col
    cfg = GmpConfig(ka=2, la=1)
    with pytest.raises(GmpFitError):
        gmp_fit_ls(basis, y, cfg)
    model = gmp_fit_ls(basis, y, cfg, ridge=1e-9)
    # regularized split of the shared direction still reproduces y
    assert np.allclose(basis @ model.coeffs, y, atol=1e-6)

    # nearly collinear: s_min is about 160 eps of s_max, inside lstsq's
    # cutoff of eps * rows * s_max at 5000 rows but not at 50
    near = np.column_stack([col, col + 1e-13 * rng.standard_normal(n_rows)])
    lstsq_rank = np.linalg.lstsq(near, y, rcond=None)[2]
    assert lstsq_rank == (2 if n_rows == 50 else 1)
    if lstsq_rank < 2:
        with pytest.raises(GmpFitError):
            gmp_fit_ls(near, y, cfg)
    else:
        assert np.allclose(near @ gmp_fit_ls(near, y, cfg).coeffs, y, atol=1e-6)


def test_fit_input_validation():
    basis = np.ones((3, 5), dtype=complex)
    with pytest.raises(ValueError):
        gmp_fit_ls(basis, np.ones(3), GmpConfig(ka=5, la=1))  # underdetermined
    two = GmpConfig(ka=2, la=1)
    with pytest.raises(ValueError):
        gmp_fit_ls(np.ones((10, 2), dtype=complex), np.ones(9), two)
    with pytest.raises(ValueError):
        gmp_fit_ls(np.ones((10, 2), dtype=complex), np.ones(10), two, ridge=-1.0)
    with pytest.raises(ValueError, match="columns"):
        gmp_fit_ls(np.ones((10, 2), dtype=complex), np.ones(10), GmpConfig(ka=3, la=1))


def load_gmp(path) -> GmpModel:
    """Read a model that `save_gmp` wrote."""
    doc = json.loads(path.read_text())
    coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]], dtype=np.complex128)
    return GmpModel(from_dict(GmpConfig, doc["config"], path="config"), coeffs)


def test_gmp_model_validation_and_roundtrip(tmp_path):
    cfg = GmpConfig(ka=2, la=2)
    with pytest.raises(ValueError):
        GmpModel(cfg, np.ones(3, dtype=complex))
    model = GmpModel(cfg, np.array([1 + 2j, -0.5, 0.25j, 3]))
    path = tmp_path / "gmp.json"
    save_gmp(model, path)
    back = load_gmp(path)
    assert back.config == cfg
    assert np.array_equal(back.coeffs, model.coeffs)


def test_mlp_feature_layouts():
    rng = np.random.default_rng(3)
    graphs = rng.standard_normal((6, 5, 4))
    iq = mlp_features_from_graphs(graphs, "iq")
    assert iq.shape == (6, 8)
    assert np.array_equal(iq[2], graphs[2, :2, :].reshape(-1))
    full = mlp_features_from_graphs(graphs, "iq_env")
    assert full.shape == (6, 20)
    assert np.array_equal(full[4], graphs[4].reshape(-1))
    with pytest.raises(ValueError):
        mlp_features_from_graphs(graphs, "envelope")
    with pytest.raises(ValueError):
        mlp_features_from_graphs(graphs[:, :3, :], "iq")


def test_baseline_specs_table():
    assert set(MLP_BASELINES) == {"rvtdnn", "arvtdnn", "dnn"}
    rv = mlp_baseline_spec("rvtdnn")
    assert rv.widths(3) == [8, 35, 2]
    ar = mlp_baseline_spec("arvtdnn")
    assert ar.widths(3) == [20, 17, 2]
    dn = mlp_baseline_spec("dnn")
    assert dn.widths(3) == [8, 17, 17, 17, 2]
    assert dn.hidden_activation == "sigmoid"
    with pytest.raises(ValueError):
        mlp_baseline_spec("lstm")


def test_train_baseline_learns_a_simple_map():
    rng = np.random.default_rng(4)
    n = 400
    x = ComplexSeq(0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    y = ComplexSeq(0.8 * x.data)  # linear map, easily fit by any baseline
    train, test = build_dataset(x, y, 3, n - 3, split_seed=0)
    spec = mlp_baseline_spec("arvtdnn")
    layers, hist = train_mlp_baseline(spec, train, AdamConfig(max_iters=2000, mse_threshold=0.0))
    assert hist.shape == (2000, 2)
    pred = mlp_forward(layers, mlp_features_from_graphs(test.graphs, spec.feature_kind))
    score = nmse_db(pred[:, 0] + 1j * pred[:, 1], test.labels[:, 0] + 1j * test.labels[:, 1])
    assert score <= -22
