"""End-to-end acceptance checks for the whole package.

Ten criteria, one test and one printed PASS/FAIL line each. The heavy
pipelines (full impairment-case modeling runs, the DPD loop) are session
fixtures shared by the criteria that need them; everything else runs in
seconds. Tolerances are pinned here and nowhere else.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from padpd.baselines import (
    gmp_basis_at,
    gmp_fit_ls,
    gmp_table_config,
    mlp_baseline_spec,
)
from padpd.basis_check import contains_basis_terms, expand_power, filter_tap_sum, tanh_taylor
from padpd.complexity import (
    conv_net_coeff_count,
    conv_net_flops,
    gmp_coeff_count,
    gmp_flops,
    mlp_coeff_count,
)
from padpd.dataset import Dataset
from padpd.experiment import ExperimentConfig, run_dpd_experiment, run_experiment
from padpd.metrics import nmse_db, psd_welch
from padpd.network import ConvNetArch, ConvNetParams, init_params
from padpd.signals import OfdmConfig, generate_ofdm, papr_db
from padpd.training import AdamConfig, LmConfig, backprop_grads, mse_cost


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="session")
def case1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_case1")
    t0 = time.time()
    report = run_experiment(ExperimentConfig(), out)
    return {"report": report, "out": out, "seconds": time.time() - t0}


@pytest.fixture(scope="session")
def case23_runs():
    runs = {}
    for case in (2, 3):
        t0 = time.time()
        runs[case] = {
            "report": run_experiment(ExperimentConfig(impairment_case=case)),
            "seconds": time.time() - t0,
        }
    return runs


@pytest.fixture(scope="session")
def dpd_run():
    t0 = time.time()
    return {"report": run_dpd_experiment(ExperimentConfig()), "seconds": time.time() - t0}


def test_criterion_01_complexity_oracles(capsys):
    t0 = time.time()
    checks = [
        (conv_net_coeff_count(ConvNetArch()), 158),
        (conv_net_flops(ConvNetArch()), 876),
        (conv_net_coeff_count(ConvNetArch(memory_depth=2)), 104),
        (conv_net_coeff_count(ConvNetArch(memory_depth=5)), 266),
        (conv_net_coeff_count(ConvNetArch(n_kernels=1, kernel_rows=2, kernel_cols=1,
                                          fc_neurons=20)), 385),
        (conv_net_coeff_count(ConvNetArch(n_kernels=1, kernel_rows=3, kernel_cols=1,
                                          fc_neurons=20)), 306),
        (conv_net_coeff_count(ConvNetArch(n_kernels=3, kernel_rows=3, kernel_cols=3,
                                          fc_neurons=20)), 452),
        (gmp_coeff_count(gmp_table_config()), 214),
        (gmp_flops(gmp_table_config()), 854),
        (mlp_coeff_count(mlp_baseline_spec("arvtdnn").widths(3)), 393),
        (mlp_coeff_count(mlp_baseline_spec("rvtdnn").widths(3)), 387),
    ]
    got = [g for g, _ in checks]
    want = [w for _, w in checks]
    elapsed = time.time() - t0
    ok = got == want and elapsed < 1.0
    _verdict(capsys, 1, ok,
             f"counts {got} == {want} in {elapsed:.2f}s (< 1s)")


def test_criterion_02_gradient_correctness(capsys):
    arch = ConvNetArch()
    t0 = time.time()
    worst = 0.0
    h = 1e-6
    for inst in range(20):
        rng = np.random.default_rng(100 + inst)
        graphs = rng.standard_normal((6, *arch.input_shape)) * 0.5
        labels = rng.standard_normal((6, 2)) * 0.3
        data = Dataset(graphs, labels)
        params = init_params(arch, inst)
        analytic = np.concatenate([a.ravel() for a in backprop_grads(params, arch, data).as_list()])
        arrays = params.as_list()
        numeric = []
        for ai, arr in enumerate(arrays):
            flat = arr.ravel()
            for fi in range(flat.size):
                orig = flat[fi]
                bumped = [a.copy() for a in arrays]
                bumped[ai].ravel()[fi] = orig + h
                c_plus = mse_cost(ConvNetParams(*bumped), arch, data)
                bumped[ai].ravel()[fi] = orig - h
                c_minus = mse_cost(ConvNetParams(*bumped), arch, data)
                numeric.append((c_plus - c_minus) / (2 * h))
        numeric = np.asarray(numeric)
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(numeric)
        worst = max(worst, float(rel))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _verdict(capsys, 2, ok,
             f"worst relative gradient error {worst:.2e} (< 1e-6) over 20 instances "
             f"in {elapsed:.1f}s (< 10s)")


def test_criterion_03_gmp_self_recovery(capsys):
    t0 = time.time()
    cfg = gmp_table_config()
    x = generate_ofdm(OfdmConfig(n_symbols=12, seed=5))
    idx = np.arange(cfg.max_past, len(x) - cfg.max_future)
    basis = gmp_basis_at(x, cfg, idx)
    rng = np.random.default_rng(7)
    true = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
    y = basis @ true
    model = gmp_fit_ls(basis, y, cfg)
    recovered = nmse_db(basis @ model.coeffs, y)
    elapsed = time.time() - t0
    ok = recovered <= -100.0 and elapsed < 30.0
    _verdict(capsys, 3, ok,
             f"noiseless refit NMSE {recovered:.1f} dB (<= -100) in {elapsed:.1f}s (< 30s)")


@pytest.mark.slow
def test_criterion_04_forward_modeling_case1(capsys, case1_run):
    res = case1_run["report"]["results"]
    tr, te = res["nmse_train_db"], res["nmse_test_db"]
    gap = abs(tr - te)
    seconds = case1_run["seconds"]
    ok = te <= -30.0 and gap <= 1.0 and seconds <= 600.0
    _verdict(capsys, 4, ok,
             f"case-1 test NMSE {te:.2f} dB (<= -30), train/test gap {gap:.2f} dB (<= 1), "
             f"run took {seconds:.0f}s (<= 600s)")


@pytest.mark.slow
def test_criterion_05_two_stage_training(capsys, case1_run):
    stage2 = case1_run["report"]["results"]["stage2"]
    text = (case1_run["out"] / "history_stage2.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")][1:]
    hist = np.array([[float(v) for v in r] for r in rows])
    accepted = hist[hist[:, 3] > 0]
    monotone = bool(np.all(np.diff(accepted[:, 1]) <= 0)) if len(accepted) > 1 else True
    converged = stage2["converged"] and stage2["reason"] in ("gradient", "stalled")
    ok = monotone and converged and stage2["iters"] <= 200
    _verdict(capsys, 5, ok,
             f"polish-stage accepted cost monotone={monotone}, converged in "
             f"{stage2['iters']} iters (<= 200) by '{stage2['reason']}'")


@pytest.mark.slow
def test_criterion_06_impairment_robustness(capsys, case1_run, case23_runs):
    base = case1_run["report"]["results"]["nmse_test_db"]
    d2 = case23_runs[2]["report"]["results"]["nmse_test_db"] - base
    d3 = case23_runs[3]["report"]["results"]["nmse_test_db"] - base
    total = case1_run["seconds"] + case23_runs[2]["seconds"] + case23_runs[3]["seconds"]
    ok = d2 <= 1.5 and d3 <= 1.5 and total <= 1800.0
    _verdict(capsys, 6, ok,
             f"NMSE degradation case2 {d2:+.2f} dB, case3 {d3:+.2f} dB (each <= 1.5) "
             f"vs case1 {base:.2f} dB; three runs took {total:.0f}s (<= 1800s)")


@pytest.mark.slow
def test_criterion_07_dpd_linearization(capsys, dpd_run):
    res = dpd_run["report"]["result"]
    lo, hi = res["improvement_db"]
    seconds = dpd_run["seconds"]
    ok = lo >= 10.0 and hi >= 10.0 and seconds <= 900.0
    _verdict(capsys, 7, ok,
             f"ACPR improvement {lo:.1f}/{hi:.1f} dB per side (each >= 10), "
             f"predistorted peak {res['predistorted_peak']:.3f} "
             f"(ceiling {res['peak_ceiling']}), run took {seconds:.0f}s (<= 900s)")


def test_criterion_08_basis_expansion(capsys):
    t0 = time.time()
    taps = filter_tap_sum(3)
    expansion = tanh_taylor(taps, order=3)
    report = contains_basis_terms(expansion, memory_depth=2, max_order=2)
    cross = [e for e in report.entries if e.kind == "cross"]
    key_coeff = expand_power(taps, 3).coefficient({"b": 1, "i0": 1, "e0": 1})
    elapsed = time.time() - t0
    ok = (report.all_present and len(cross) == 12
          and key_coeff == Fraction(6) and elapsed < 5.0)
    _verdict(capsys, 8, ok,
             f"{len(cross)}/12 envelope cross-products present, "
             f"raw-cube b*I(n)*env(n) weight {key_coeff} (== 6), "
             f"in {elapsed:.1f}s (< 5s)")


def test_criterion_09_signal_fidelity(capsys):
    x = generate_ofdm(OfdmConfig())
    p = papr_db(x)
    freqs, psd = psd_welch(x, 1024)
    integral = float(np.sum(psd) * (freqs[1] - freqs[0]))
    mean_power = float(np.mean(np.abs(x.data) ** 2))
    parseval = abs(integral - mean_power) / mean_power
    ok = 9.4 <= p <= 11.4 and parseval < 0.01
    _verdict(capsys, 9, ok,
             f"PAPR {p:.3f} dB (in 10.4 +/- 1.0), Welch power integral off by "
             f"{parseval:.2%} (< 1%)")


@pytest.mark.slow
def test_criterion_10_determinism(capsys, tmp_path):
    cfg = ExperimentConfig(
        signal=OfdmConfig(n_symbols=6),
        adam=AdamConfig(max_iters=200),
        lm=LmConfig(max_iters=15),
        dataset_count=800,
        segment=512,
    )
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    ok = a == b
    _verdict(capsys, 10, ok,
             f"two identical-config runs wrote byte-identical reports "
             f"({len(a)} bytes each)" if ok else "re-run produced different report bytes")
