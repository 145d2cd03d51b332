"""Pipeline tests: config round trips, stage tagging, and small runs.

Runs here use a 4-symbol drive and a few hundred training iterations so the
whole file stays fast; model quality at realistic settings is covered by the
acceptance suite.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import padpd
from padpd.experiment import (
    ExperimentConfig,
    StageError,
    config_hash,
    experiment_config_from_dict,
    run_dpd_experiment,
    run_experiment,
    sweep_memory,
)
from padpd.network import Activation, ConvNetArch, load_params
from padpd.signals import OfdmConfig
from padpd.training import AdamConfig, LmConfig


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


def test_config_hash_stable_and_sensitive():
    cfg = small_config()
    h = config_hash(cfg)
    assert h == config_hash(small_config())
    assert len(h) == 16 and int(h, 16) >= 0
    assert config_hash(small_config(pa_seed=1)) != h
    assert config_hash(small_config(adam=AdamConfig(max_iters=151))) != h


@pytest.mark.parametrize("kind, field", [("elu", "alpha"), ("leaky_relu", "leak")])
def test_activation_parameters_are_part_of_the_config(kind, field):
    cfgs = [small_config(arch=ConvNetArch(conv_activation=Activation(kind, **{field: v})))
            for v in (0.5, 0.75)]
    for cfg in cfgs:
        assert experiment_config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert config_hash(cfgs[0]) != config_hash(cfgs[1])


def test_stage_error_carries_stage_and_cause():
    cause = ValueError("boom")
    err = StageError("train", cause)
    assert str(err) == "[train] boom"
    assert err.stage == "train"
    assert err.cause is cause


def test_run_experiment_conv_net(tmp_path):
    cfg = small_config()
    report = run_experiment(cfg, tmp_path)
    assert report["schema_version"] == 2
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
    params, arch = load_params(tmp_path / "model.json")
    assert arch == cfg.arch
    assert params.n_coefficients == 158


def test_stage2_final_mse_when_lm_accepts_no_step(tmp_path):
    # LM's only step is rejected here; the report then gives the mse LM started from
    cfg = small_config(signal=OfdmConfig(n_symbols=6), adam=AdamConfig(max_iters=50),
                       lm=LmConfig(max_iters=1), dataset_count=800, segment=512)
    stage2 = run_experiment(cfg, tmp_path)["results"]["stage2"]
    assert (stage2["iters"], stage2["reason"]) == (1, "max_iters")
    it, mse, _, accepted, _ = (tmp_path / "history_stage2.csv").read_text().splitlines()[2].split(",")
    assert (it, accepted) == ("1", "0")
    assert stage2["final_mse"] == float(mse)


@pytest.mark.slow
def test_stage1_history_independent_of_blas_threads(tmp_path):
    """The criterion-10 run's stage-1 history has the same bytes at 1 and 2
    OpenBLAS threads. (LM's solve is not thread-invariant, so later outputs
    are not compared.)"""
    script = (
        "import sys\n"
        "from padpd.experiment import ExperimentConfig, run_experiment\n"
        "from padpd.signals import OfdmConfig\n"
        "from padpd.training import AdamConfig, LmConfig\n"
        "run_experiment(ExperimentConfig(signal=OfdmConfig(n_symbols=6), adam=AdamConfig(max_iters=200),\n"
        "                                lm=LmConfig(max_iters=15), dataset_count=800, segment=512),\n"
        "               sys.argv[1])\n"
    )
    src = str(Path(padpd.__file__).resolve().parents[1])
    histories = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=300)
        histories.append((out / "history_stage1.csv").read_bytes())
    assert histories[0] == histories[1]


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


def test_run_experiment_mlp_baseline():
    cfg = small_config(model="rvtdnn", adam=AdamConfig(max_iters=200))
    res = run_experiment(cfg)["results"]
    assert res["coeff_count"] == 387
    assert res["widths"] == [8, 35, 2]
    assert res["stage1"]["iters"] == 200
    assert res["nmse_test_db"] < -18


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
    assert (tmp_path / "dpd_result.json").exists()
    for name in ("spectrum_before.csv", "spectrum_after.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1] == "freq_hz,psd_db"
    params, arch = load_params(tmp_path / "inverse_model.json")
    assert arch == cfg.arch

    with pytest.raises(ValueError, match="conv_net"):
        run_dpd_experiment(small_config(model="gmp"))


def test_stage_error_wraps_pipeline_failures():
    # dataset_count beyond the signal length fails inside the dataset stage
    cfg = small_config(dataset_count=5000)
    with pytest.raises(StageError, match=r"\[dataset\]"):
        run_experiment(cfg)
