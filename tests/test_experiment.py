"""Pipeline tests: config round trips, stage tagging, and small runs.

Runs here use a 4-symbol drive and a few hundred training iterations so the
whole file stays fast; model quality at realistic settings is covered by the
acceptance suite.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import padpd
import padpd.experiment as experiment
from padpd.baselines import (
    GmpConfig,
    gmp_basis_at,
    gmp_fit_ls,
    gmp_table_config,
    mlp_baseline_spec,
    mlp_features_from_graphs,
)
from padpd.dataset import build_dataset, joint_scale, split_indices
from padpd.experiment import (
    ExperimentConfig,
    StageError,
    config_hash,
    experiment_config_from_dict,
    run_dpd_experiment,
    run_experiment,
    sweep_memory,
)
from padpd.metrics import nmse_db
from padpd.network import Activation, ConvNetArch, forward_batch, load_params, mlp_forward
from padpd.pa import ImpairmentConfig, default_pa, transmit_chain
from padpd.signals import OfdmConfig, generate_ofdm
from padpd.training import AdamConfig, LmConfig, train_mlp_baseline


def small_config(**over):
    base = dict(
        signal=OfdmConfig(n_symbols=4, seed=2),
        adam=AdamConfig(max_iters=150),
        lm=LmConfig(max_iters=15),
        dataset_count=400,
        segment=256,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_dict_round_trip():
    cfg = small_config(model="gmp", ridge=1e-8, impairment_case=2)
    again = experiment_config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_config_partial_dict_merges_defaults():
    cfg = experiment_config_from_dict({"model": "gmp", "adam": {"max_iters": 50}})
    assert cfg.model == "gmp"
    assert cfg.adam.max_iters == 50
    assert cfg.adam.learning_rate == AdamConfig().learning_rate
    assert cfg.signal == OfdmConfig()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        experiment_config_from_dict({"modle": "gmp"})
    with pytest.raises(ValueError, match="unknown keys under"):
        experiment_config_from_dict({"adam": {"max_iter": 50}})


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model="transformer")
    with pytest.raises(ValueError):
        ExperimentConfig(impairment_case=4)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset_count=5)
    with pytest.raises(ValueError):
        ExperimentConfig(drive_backoff_db=-1.0)
    # gmp's error spectrum starts at the basis' reach, max_past = 6, not at M = 3
    with pytest.raises(ValueError, match="dataset_count 1026 leaves 1023 error-spectrum samples"):
        ExperimentConfig(model="gmp", dataset_count=1026)
    ExperimentConfig(model="gmp", dataset_count=1027)
    ExperimentConfig(dataset_count=1024)


def test_gmp_row_count_stops_at_the_signal_end():
    """A 4-symbol drive has 1280 samples. With M = 3 and a leading block
    reaching 3 samples ahead (max_past 6), gmp keeps rows 6..1276: a dataset
    of 1277 rows, ending at the signal's end, leaves 1271 of them. The
    report counts the split rows inside that window, the rows its NMSE
    scores. A dataset that runs past the end is left to the dataset stage."""
    gmp = replace(ExperimentConfig().gmp, kc=1, lc=1, mc=3)
    cfg = small_config(model="gmp", gmp=gmp, dataset_count=1277, segment=1271)
    with pytest.raises(ValueError, match="dataset_count 1277 leaves 1271 error-spectrum samples"):
        replace(cfg, segment=1272)
    m = cfg.arch.memory_depth
    lo, hi = gmp.max_past, cfg.dataset_count + m - gmp.max_future
    scored = [np.count_nonzero((rel + m >= lo) & (rel + m < hi))
              for rel in split_indices(cfg.dataset_count, cfg.split_seed)]
    assert scored[0] < 766 and sum(scored) == 1271  # the train split has 766 rows, not all inside
    res = run_experiment(cfg)["results"]
    assert [res["n_train"], res["n_test"]] == scored
    past_end = replace(cfg, dataset_count=1278, segment=1272)
    with pytest.raises(StageError, match=r"\[dataset\]"):
        run_experiment(past_end)


def test_config_hash_stable_and_sensitive():
    cfg = small_config()
    h = config_hash(cfg)
    assert h == config_hash(small_config())
    assert len(h) == 16 and int(h, 16) >= 0
    assert config_hash(small_config(pa_seed=1)) != h
    assert config_hash(small_config(adam=AdamConfig(max_iters=151))) != h


def test_stage_error_carries_stage_and_cause():
    cause = ValueError("boom")
    err = StageError("train", cause)
    assert str(err) == "[train] boom"
    assert err.stage == "train"
    assert err.cause is cause


def test_run_experiment_conv_net(tmp_path):
    cfg = small_config()
    report = run_experiment(cfg, tmp_path)
    assert report["schema_version"] == 4
    assert report["config_hash"] == config_hash(cfg)
    res = report["results"]
    assert res["model"] == "conv_net"
    assert res["coeff_count"] == 158 and res["flops"] == 876
    assert res["n_train"] == 240 and res["n_test"] == 160  # 3:2 split of 400
    assert res["stage1"]["iters"] == 150
    assert res["stage2"]["iters"] == 15
    assert res["stage2"]["reason"] == "max_iters"
    assert res["nmse_train_db"] < -25 and res["nmse_test_db"] < -25
    assert len(res["acpr_output_db"]) == 2
    assert np.isfinite(res["papr_db"])

    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report
    tag = f"config_hash={report['config_hash']}"
    for name in ("history_stage1.csv", "history_stage2.csv", "error_spectrum.csv"):
        text = (tmp_path / name).read_text()
        assert text.startswith(f"# {tag}\n")
    header = (tmp_path / "error_spectrum.csv").read_text().splitlines()[1]
    assert header == "freq_hz,ref_psd_db,error_psd_db"
    history = (tmp_path / "history_stage1.csv").read_text().splitlines()
    assert history[1] == "iter,mse_train,mse_test" and len(history) == 2 + 150
    assert history[2].startswith("1,") and history[-1].startswith("150,")
    params, arch = load_params(tmp_path / "model.json")
    assert arch == cfg.arch
    assert sum(a.size for a in params.as_list()) == 158


def test_stage2_final_mse_when_lm_accepts_no_step(tmp_path):
    # LM's only step, nearly undamped from mu_init=1e-6, is rejected here; the report then
    # gives the mse LM started from
    cfg = small_config(signal=OfdmConfig(n_symbols=6), adam=AdamConfig(max_iters=50),
                       lm=LmConfig(max_iters=1, mu_init=1e-6), dataset_count=800, segment=512)
    stage2 = run_experiment(cfg, tmp_path)["results"]["stage2"]
    assert (stage2["iters"], stage2["reason"]) == (1, "max_iters")
    it, mse, _, accepted, _ = (tmp_path / "history_stage2.csv").read_text().splitlines()[2].split(",")
    assert (it, accepted) == ("1", "0")
    assert stage2["final_mse"] == float(mse)


def test_lm_stopping_at_its_first_check_writes_no_stage2_history(tmp_path):
    """At grad_tol 1 the head's gradient is already small enough: LM takes no
    step, the report says why, and of the conv fit's files only the LM
    history is missing."""
    cfg = small_config(lm=LmConfig(max_iters=15, grad_tol=1.0))
    stage2 = run_experiment(cfg, tmp_path)["results"]["stage2"]
    assert stage2 == {"iters": 0, "converged": True, "reason": "gradient", "final_mse": None}
    assert (tmp_path / "history_stage1.csv").exists() and (tmp_path / "model.json").exists()
    assert not (tmp_path / "history_stage2.csv").exists()


def _run_at_blas_threads(threads: str, script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter at ``threads`` OpenBLAS threads; return its stdout."""
    src = str(Path(padpd.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, check=True, timeout=300,
                          capture_output=True, text=True).stdout


@pytest.mark.slow
def test_stage1_history_independent_of_blas_threads(tmp_path):
    """The criterion-10 run's stage-1 history has the same bytes at 1 and 2
    OpenBLAS threads: with its 480/320 split in one block each, as it runs,
    and cut into blocks of at most 100 samples (5 and 4 blocks). (LM's solve
    is not thread-invariant, so later outputs are not compared.)"""
    script = (
        "import sys\n"
        "from padpd import network\n"
        "from padpd.experiment import ExperimentConfig, run_experiment\n"
        "from padpd.signals import OfdmConfig\n"
        "from padpd.training import AdamConfig, LmConfig\n"
        "network._BLOCK_SAMPLES = int(sys.argv[2])\n"
        "run_experiment(ExperimentConfig(signal=OfdmConfig(n_symbols=6), adam=AdamConfig(max_iters=200),\n"
        "                                lm=LmConfig(max_iters=15), dataset_count=800, segment=512),\n"
        "               sys.argv[1])\n"
    )
    for block_samples in ("4096", "100"):
        histories = []
        for threads in ("1", "2"):
            out = tmp_path / f"cap{block_samples}-threads{threads}"
            _run_at_blas_threads(threads, script, str(out), block_samples)
            histories.append((out / "history_stage1.csv").read_bytes())
        assert histories[0] == histories[1], block_samples


@pytest.mark.slow
def test_float32_adam_outputs_independent_of_blas_threads(tmp_path):
    """With Adam's passes in float32, at the default dataset (an 8400-sample
    train split in three blocks) the conv model's stage-1 history and every
    MLP baseline's whole output tree have the same bytes at 1 and 2 OpenBLAS
    threads. (The conv run's LM solve is not thread-invariant, so its later
    outputs are not compared.)"""
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from padpd.experiment import ExperimentConfig, run_experiment\n"
        "from padpd.training import AdamConfig, LmConfig\n"
        "out = Path(sys.argv[1])\n"
        "run_experiment(ExperimentConfig(adam=AdamConfig(max_iters=60), lm=LmConfig(max_iters=2)), out / 'conv_net')\n"
        "for model in ('rvtdnn', 'arvtdnn', 'dnn'):\n"
        "    run_experiment(ExperimentConfig(model=model, adam=AdamConfig(max_iters=60)), out / model)\n"
    )
    for threads in ("1", "2"):
        _run_at_blas_threads(threads, script, str(tmp_path / threads))
    one, two = tmp_path / "1", tmp_path / "2"
    assert (one / "conv_net/history_stage1.csv").read_bytes() == (two / "conv_net/history_stage1.csv").read_bytes()
    for model in ("rvtdnn", "arvtdnn", "dnn"):
        files = sorted(f.name for f in (one / model).iterdir())
        assert files == sorted(f.name for f in (two / model).iterdir()) and "history_stage1.csv" in files
        for name in files:
            assert (one / model / name).read_bytes() == (two / model / name).read_bytes(), (model, name)


@pytest.mark.slow
def test_lm_normal_equations_independent_of_blas_threads():
    """LM's J'J and the head's gradient, whose N-fold is J'e, for the paper's
    arch have the same bytes at 1 and 2 OpenBLAS threads, at the train-split
    sizes the pipelines use."""
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from padpd.network import ConvNetArch, Workspace, _im2col, conv_net, init_params\n"
        "from padpd.training import _fc_jtj, _Split\n"
        "arch = ConvNetArch()\n"
        "net = conv_net(init_params(arch, 1), arch)\n"
        "rng = np.random.default_rng(0)\n"
        "for n in (480, 3000, 8400):\n"
        "    ws = Workspace(net, _im2col(0.4 * rng.standard_normal((n, *arch.input_shape)), arch))\n"
        "    ws.forward()\n"
        "    split = _Split(net.head, [ws.acts[0]], 0.3 * rng.standard_normal((n, 2)), backward=True)\n"
        "    grad = split.net.like(np.empty_like(split.net.theta))\n"
        "    split.cost_and_grad(grad)\n"
        "    jtj = _fc_jtj(split.blocks[0])\n"
        "    print(n, hashlib.sha256(jtj.tobytes() + grad.theta.tobytes()).hexdigest())\n"
    )
    hashes = [_run_at_blas_threads(threads, script) for threads in ("1", "2")]
    assert len(hashes[0].splitlines()) == 3
    assert hashes[0] == hashes[1]


def test_run_experiment_gmp(tmp_path):
    cfg = small_config(model="gmp")
    out = tmp_path / "runs" / "gmp"  # a directory that does not exist yet
    report = run_experiment(cfg, out)
    res = report["results"]
    assert res["coeff_count"] == 214 and res["flops"] == 854
    # the synthetic PA lives inside the GMP model class, so LS nails it up to
    # the front-end impairments (the DC offset is outside the basis)
    assert res["nmse_train_db"] < -60
    assert res["nmse_test_db"] < -40
    assert res["ridge"] == 0.0
    assert (out / "model.json").exists()
    assert json.loads((out / "report.json").read_text()) == report


@pytest.mark.parametrize("gmp", [None, GmpConfig(ka=3, la=2, kb=1, lb=1, mb=2, kc=1, lc=1, mc=2)])
def test_gmp_report_matches_per_split_basis(tmp_path, gmp):
    """The train/test predictions are rows of the one prediction over the valid
    samples; each split's NMSE equals that of its own basis, to 1e-12 dB."""
    cfg = small_config(model="gmp", impairment_case=2, **({"gmp": gmp} if gmp else {}))
    res = run_experiment(cfg, tmp_path)["results"]
    coeffs = [complex(re, im) for re, im in json.loads((tmp_path / "model.json").read_text())["coeffs"]]
    x = generate_ofdm(cfg.signal)
    y = transmit_chain(default_pa(cfg.pa_seed, cfg.pa_k_order, cfg.pa_q_depth), x,
                       ImpairmentConfig.case(cfg.impairment_case))
    m = cfg.arch.memory_depth
    train, _ = build_dataset(x, y, m, cfg.dataset_count, cfg.split_seed)
    xs, ys = x.scaled(train.scale), y.data * train.scale
    lo, hi = cfg.gmp.max_past, cfg.dataset_count + m - cfg.gmp.max_future
    for split, rel in zip(("train", "test"), split_indices(cfg.dataset_count, cfg.split_seed)):
        idx = rel + m
        idx = idx[(idx >= lo) & (idx < hi)]
        pred = gmp_basis_at(xs, cfg.gmp, idx) @ np.array(coeffs)
        assert res[f"nmse_{split}_db"] == pytest.approx(nmse_db(pred, ys[idx]), abs=1e-12)
        assert res[f"n_{split}"] == len(idx)


@pytest.mark.parametrize("count, n_train", [(1500, 899), (3417, 2048), (14000, 8399)],
                         ids=["one-block", "two-full-blocks", "remainder"])
@pytest.mark.parametrize("ridge", [0.0, 1e-8])
def test_blocked_gmp_fit_has_the_bytes_of_the_whole_basis(tmp_path, count, n_train, ridge):
    """The fit, fed its basis one QR block of train rows at a time, and the
    prediction, one block of rows at a time, give the bytes of the whole-basis
    fit: one basis over every row, the train rows first in split order, whose
    leading slice is fitted and which is multiplied by the coefficients once."""
    cfg = ExperimentConfig(model="gmp", signal=OfdmConfig(n_symbols=50), dataset_count=count, ridge=ridge)
    x = generate_ofdm(cfg.signal)
    y = transmit_chain(default_pa(cfg.pa_seed, cfg.pa_k_order, cfg.pa_q_depth), x,
                       ImpairmentConfig.case(cfg.impairment_case))
    fit = experiment._fit_gmp(cfg, x, y)
    fit.files["model.json"](tmp_path / "model.json", "")
    coeffs = np.array([complex(re, im) for re, im in json.loads((tmp_path / "model.json").read_text())["coeffs"]])

    m = cfg.arch.memory_depth
    scale = joint_scale(x, y, m, count)
    xs, ys = x.scaled(scale), y.data * scale
    rows = np.arange(max(m, cfg.gmp.max_past), m + count)  # the table config reaches no future sample
    tr = split_indices(count, cfg.split_seed)[0] + m
    tr = tr[tr >= rows[0]]
    assert len(tr) == n_train and np.array_equal(rows[fit.train_pos], tr)
    order = np.concatenate([tr, np.setdiff1d(rows, tr)])
    basis = gmp_basis_at(xs, cfg.gmp, order)
    whole = gmp_fit_ls(basis[:n_train], ys[tr], cfg.gmp, ridge)
    assert coeffs.tobytes() == whole.coeffs.tobytes()
    pred = np.empty(len(rows), dtype=np.complex128)
    pred[order - rows[0]] = basis @ whole.coeffs
    assert fit.pred.tobytes() == pred.tobytes()


def test_gmp_run_never_holds_its_whole_basis():
    """A gmp run's tracemalloc peak stays below one rows x terms complex
    basis (24 MB here; 32.4 MB with the whole basis built): the fit and the
    prediction build it a block of rows at a time. The drive is short, so the
    basis would dominate the run."""
    cfg = ExperimentConfig(model="gmp", signal=OfdmConfig(n_symbols=50))
    run_experiment(replace(cfg, dataset_count=1500))  # imports and FFT plans outside the measurement
    tracemalloc.start()
    try:
        res = run_experiment(cfg)["results"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = res["n_train"] + res["n_test"]
    assert rows == 13997
    assert peak < rows * gmp_table_config().n_terms * 16, peak


@pytest.mark.parametrize("model", ["conv_net", "rvtdnn"])
def test_network_report_matches_per_split_forward(tmp_path, model):
    """The train/test predictions are rows of the one prediction over the
    ordered samples; each split's NMSE equals that of its own forward pass,
    to 1e-12 dB: the saved conv model's, or an MLP retrained with the same
    seed."""
    cfg = small_config(model=model)
    res = run_experiment(cfg, tmp_path)["results"]
    x = generate_ofdm(cfg.signal)
    y = transmit_chain(default_pa(cfg.pa_seed, cfg.pa_k_order, cfg.pa_q_depth), x,
                       ImpairmentConfig.case(cfg.impairment_case))
    splits = build_dataset(x, y, cfg.arch.memory_depth, cfg.dataset_count, cfg.split_seed)
    if model == "conv_net":
        params, arch = load_params(tmp_path / "model.json")

        def predict(graphs):
            return forward_batch(params, arch, graphs)
    else:
        spec = mlp_baseline_spec(model)
        layers, _ = train_mlp_baseline(spec, splits[0], cfg.adam, cfg.init_seed)

        def predict(graphs):
            return mlp_forward(layers, mlp_features_from_graphs(graphs, spec.feature_kind))
    for split, data in zip(("train", "test"), splits):
        pred, ref = predict(data.graphs), data.labels
        expect = nmse_db(pred[:, 0] + 1j * pred[:, 1], ref[:, 0] + 1j * ref[:, 1])
        assert res[f"nmse_{split}_db"] == pytest.approx(expect, abs=1e-12)


def test_run_experiment_mlp_baseline(tmp_path):
    cfg = small_config(model="rvtdnn", adam=AdamConfig(max_iters=200))
    res = run_experiment(cfg, tmp_path)["results"]
    assert res["coeff_count"] == 387
    assert res["widths"] == [8, 35, 2]
    assert res["stage1"]["iters"] == 200
    assert res["nmse_test_db"] < -18
    history = (tmp_path / "history_stage1.csv").read_text().splitlines()
    assert history[1] == "iter,mse_train" and len(history) == 2 + 200  # no test column
    assert not (tmp_path / "history_stage2.csv").exists() and not (tmp_path / "model.json").exists()


def test_run_experiment_deterministic():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sweep_memory(tmp_path):
    cfg = small_config()
    rows = sweep_memory(cfg, [2, 3, 5], tmp_path)
    assert [r["memory_depth"] for r in rows] == [2, 3, 5]
    assert [r["coeff_count"] for r in rows] == [104, 158, 266]
    assert all(np.isfinite(r["nmse_test_db"]) for r in rows)
    lines = (tmp_path / "memory_sweep.csv").read_text().splitlines()
    assert lines[1] == "memory_depth,coeff_count,nmse_train_db,nmse_test_db"
    assert len(lines) == 2 + 3
    assert lines[2].startswith("2,104,")
    with pytest.raises(ValueError):
        sweep_memory(cfg, [])


def test_reuse_saved_filter(tmp_path):
    cfg = small_config()
    run_experiment(cfg, tmp_path)
    reused = replace(cfg, reuse_filter_from=str(tmp_path / "model.json"))
    report = run_experiment(reused)
    assert report["results"]["stage1"]["iters"] == 0  # conv stage skipped
    assert report["results"]["nmse_test_db"] < -25

    mismatched = replace(
        cfg,
        arch=ConvNetArch(memory_depth=2, kernel_cols=3),
        reuse_filter_from=str(tmp_path / "model.json"),
    )
    with pytest.raises(StageError, match=r"\[train\]"):
        run_experiment(mismatched)

    # a sigmoid-trained filter under a tanh config would change the basis the head fits
    other_act = replace(cfg, arch=replace(cfg.arch, conv_activation=Activation("sigmoid")),
                        reuse_filter_from=str(tmp_path / "model.json"))
    with pytest.raises(StageError, match=r"\[train\].*conv_activation"):
        run_experiment(other_act)


def test_run_dpd_experiment(tmp_path):
    cfg = small_config(adam=AdamConfig(max_iters=300))
    report = run_dpd_experiment(cfg, tmp_path)
    result = report["result"]
    assert result["nmse_inverse_db"] < -20
    assert result["predistorted_peak"] > 0
    assert len(result["improvement_db"]) == 2
    doc = json.loads((tmp_path / "dpd_result.json").read_text())
    assert doc == report and set(doc) == {"schema_version", "config_hash", "config", "result"}
    assert {k: type(v) for k, v in result.items()} == {
        "acpr_before_db": list, "acpr_after_db": list, "improvement_db": list, "nmse_inverse_db": float,
        "gain_estimate": float, "predistorted_peak": float, "peak_ceiling": float, "peak_exceeded": bool}
    for key in ("acpr_before_db", "acpr_after_db", "improvement_db"):
        assert [type(v) for v in result[key]] == [float, float]
    for name in ("spectrum_before.csv", "spectrum_after.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1] == "freq_hz,psd_db"
    params, arch = load_params(tmp_path / "inverse_model.json")
    assert arch == cfg.arch

    with pytest.raises(ValueError, match="conv_net"):
        run_dpd_experiment(small_config(model="gmp"))


def test_dpd_reuses_a_saved_filter(tmp_path, monkeypatch):
    """DPD trains through the forward model's trainer, so it loads a saved
    filter as `run` does: the inverse model keeps the file's conv weights
    and stage 1 never runs."""
    cfg = small_config(adam=AdamConfig(max_iters=300))
    run_dpd_experiment(cfg, tmp_path / "first")
    saved_path = str(tmp_path / "first" / "inverse_model.json")
    saved, _ = load_params(saved_path)

    def no_stage1(*args):
        raise AssertionError("stage 1 ran on a reused filter")

    monkeypatch.setattr("padpd.experiment.train_stage1_adam", no_stage1)
    report = run_dpd_experiment(replace(cfg, reuse_filter_from=saved_path), tmp_path / "second")
    assert report["result"]["nmse_inverse_db"] < -20
    params, _ = load_params(tmp_path / "second" / "inverse_model.json")
    assert params.conv_kernels.tobytes() == saved.conv_kernels.tobytes()
    assert params.conv_biases.tobytes() == saved.conv_biases.tobytes()

    mismatched = replace(cfg, arch=ConvNetArch(memory_depth=2, kernel_cols=3), reuse_filter_from=saved_path)
    with pytest.raises(StageError, match=r"\[train\].*memory_depth"):
        run_dpd_experiment(mismatched)


def test_stage_error_wraps_pipeline_failures():
    # dataset_count beyond the signal length fails inside the dataset stage
    cfg = small_config(dataset_count=5000)
    with pytest.raises(StageError, match=r"\[dataset\]"):
        run_experiment(cfg)
