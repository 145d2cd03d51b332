"""CLI surface tests: argument handling, exit codes, printed summaries."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padpd
from padpd.cli import main
from padpd.network import ConvNetArch, init_params, load_params, save_params

SMALL_DOC = {
    "signal": {"n_symbols": 4},
    "adam": {"max_iters": 150},
    "lm": {"max_iters": 10},
    "dataset_count": 400,
    "segment": 256,
}


def write_config(tmp_path, doc=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc if doc is not None else SMALL_DOC))
    return str(path)


def test_gen_signal(tmp_path, capsys):
    out = tmp_path / "sig.csv"
    code = main(["gen-signal", "--set", "signal.n_symbols=2", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "papr_db=" in stdout
    assert f"wrote {out}" in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "n,i,q"
    assert len(lines) == 2 + 2 * 320  # two OFDM symbols
    assert (tmp_path / "sig.meta.json").exists()


def test_run_with_config_and_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "run"
    code = main([
        "run", "--config", cfg, "--set", "adam.max_iters=120",
        "--output-dir", str(out_dir),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "nmse_test_db=" in stdout
    assert "coefficients=158" in stdout
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["adam"]["max_iters"] == 120
    assert report["results"]["stage1"]["iters"] == 120


def test_run_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error [config]" in capsys.readouterr().err


def test_run_stage_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SMALL_DOC, "dataset_count": 5000})
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path / "x")])
    assert code == 1
    assert "error [dataset]" in capsys.readouterr().err


def test_bad_set_syntax(capsys):
    assert main(["run", "--set", "adam.max_iters"]) == 2
    assert "key=value" in capsys.readouterr().err
    assert main(["run", "--set", "no_such_key=3"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("override, path", [
    ("arch=3", "arch"),
    ("signal=null", "signal"),
    ("adam.max_iters=50.5", "adam.max_iters"),
    ("signal.n_symbols=6.5", "signal.n_symbols"),
    ("arch.memory_depth=3.7", "arch.memory_depth"),
    ("ridge=true", "ridge"),
    ("reuse_filter_from=5", "reuse_filter_from"),
])
def test_wrong_json_type_is_a_config_error(override, path, tmp_path, capsys):
    argv = ["gen-signal", "--set", "signal.n_symbols=2", "--set", override,
            "--out", str(tmp_path / "sig.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and path in err


@pytest.mark.parametrize("override, field", [
    ("lm.grad_tol=-1e-9", "grad_tol"),
    ("lm.grad_tol=NaN", "grad_tol"),
    ("lm.grad_tol=Infinity", "grad_tol"),
    ("lm.mu_max=1e-6", "mu_max"),
    ("lm.mu_max=Infinity", "mu_max"),
    ("lm.mu_max=NaN", "mu_max"),
    ("lm.min_rel_improvement=1", "min_rel_improvement"),
    ("lm.min_rel_improvement=-0.1", "min_rel_improvement"),
    ("lm.min_rel_improvement=NaN", "min_rel_improvement"),
    ("adam.epsilon=Infinity", "epsilon"),
    ("adam.learning_rate=Infinity", "learning_rate"),
    ("adam.learning_rate=NaN", "learning_rate"),
    ("segment=1", "segment"),
    ("dataset_count=1023", "dataset_count"),  # fewer error-spectrum samples than one segment
    ("ridge=-1e-9", "ridge"),
    ("pa_q_depth=0", "pa_q_depth"),
    ("pa_k_order=1", "pa_k_order"),
    ('reuse_filter_from=""', "reuse_filter_from"),  # empty: not a path, and not null either
])
def test_lm_config_values_are_checked_up_front(override, field, tmp_path, capsys):
    """A setting that could only fail, or do nothing, once the pipeline has
    started is a config error: an LM or Adam value, the PA's order or depth,
    the GMP ridge, or a Welch segment the error spectrum cannot fill."""
    out = tmp_path / "run"
    assert main(["run", "--set", override, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["gmp", "dnn"])
def test_reuse_filter_from_needs_the_conv_net(model, tmp_path, capsys):
    """Only the conv net has a filter to load; other models would ignore the path."""
    out = tmp_path / "run"
    argv = ["run", "--set", f"model={model}", "--set", "reuse_filter_from=model.json", "--output-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and "reuse_filter_from" in err
    assert not out.exists()


def test_gmp_rows_past_the_signal_end_are_a_config_error(tmp_path, capsys):
    """gmp's error spectrum also loses the rows whose leading envelopes reach
    past the signal's end; the config counts them before anything runs."""
    out = tmp_path / "run"
    argv = ["run", "--set", "signal.n_symbols=4", "--set", "model=gmp", "--set", "gmp.kc=1",
            "--set", "gmp.lc=1", "--set", "gmp.mc=3", "--set", "dataset_count=1277",
            "--set", "segment=1274", "--output-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: dataset_count 1277 leaves 1271 error-spectrum samples")
    assert not out.exists()


def test_import_loads_no_scipy():
    """scipy is a test and benchmark dependency only: importing the package
    and its CLI in a fresh interpreter loads no scipy module."""
    src = str(Path(padpd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, padpd, padpd.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_schema1_checkpoint_is_rejected(tmp_path, capsys):
    # checkpoints written before kernel_depth was removed carry "kernel_depth": 1
    path = tmp_path / "model.json"
    save_params(init_params(ConvNetArch()), ConvNetArch(), path)
    doc = json.loads(path.read_text())
    doc["arch"]["kernel_depth"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="arch.kernel_depth"):
        load_params(path)
    argv = ["run", "--config", write_config(tmp_path),
            "--set", f"reuse_filter_from={json.dumps(str(path))}", "--output-dir", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [train]: ") and "kernel_depth" in err


def test_dpd_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SMALL_DOC, "adam": {"max_iters": 300}})
    out_dir = tmp_path / "dpd"
    code = main(["dpd", "--config", cfg, "--output-dir", str(out_dir)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "improvement_db=" in stdout
    assert "nmse_inverse_db=" in stdout
    assert (out_dir / "dpd_result.json").exists()
    assert (out_dir / "spectrum_before.csv").exists()
    assert (out_dir / "spectrum_after.csv").exists()
    assert (out_dir / "inverse_model.json").exists()


def test_dpd_filter_of_another_memory_depth_fails_in_train(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_params(init_params(ConvNetArch()), ConvNetArch(), path)  # memory depth 3
    out = tmp_path / "dpd"
    argv = ["dpd", "--config", write_config(tmp_path), "--set", "arch.memory_depth=2",
            "--set", f"reuse_filter_from={json.dumps(str(path))}", "--output-dir", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [train]: ") and "memory_depth" in err
    assert not out.exists()


def test_complexity_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text('{"model": "conv_net"}')
    assert main(["complexity", "--spec", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"model": "conv_net", "coefficients": 158, "flops": 876}

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"model": "mlp", "widths": [8, 35, 2]}'))
    assert main(["complexity", "--spec", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["coefficients"] == 387 and doc["flops"] == 1155


def test_complexity_errors(tmp_path, capsys):
    assert main(["complexity", "--spec", str(tmp_path / "missing.json")]) == 2
    assert "error [config]" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["complexity", "--spec", str(bad)]) == 2
    unk = tmp_path / "unk.json"
    for kind in ("transformer", "lstm"):
        unk.write_text(json.dumps({"model": kind}))
        assert main(["complexity", "--spec", str(unk)]) == 2
        assert "unknown model kind" in capsys.readouterr().err


@pytest.mark.parametrize("spec, path", [
    ({"model": "conv_net", "n_layers": 2}, "n_layers"),
    ({"model": "conv_net", "memory_depth": 2.9}, "memory_depth"),
    ({"model": "gmp", "ka": 2.5, "la": 1}, "ka"),
    ({"model": "mlp"}, "widths"),
    ({"model": "mlp", "widths": [2.7, 3]}, "widths[0]"),
    ({"model": "mlp", "widths": [4, 3, 2], "act_cost": 2.5}, "act_cost"),
    (5, "object"),
])
def test_complexity_spec_fields_are_type_checked(spec, path, monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
    assert main(["complexity", "--spec", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]: ") and path in err


def test_sweep_memory_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep-memory", "--config", cfg, "--memory-depths", "2,3",
        "--output-dir", str(out_dir),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "memory_depth,coeff_count,nmse_train_db,nmse_test_db"
    assert lines[1].startswith("2,104,")
    assert lines[2].startswith("3,158,")
    assert (out_dir / "memory_sweep.csv").exists()

    assert main(["sweep-memory", "--config", cfg, "--memory-depths", ","]) == 2


def test_basis_check_command(capsys):
    assert main(["basis-check"]) == 0
    stdout = capsys.readouterr().out
    assert "all expected basis terms present" in stdout
    assert "cube coefficient of b*I(n)*env(n): 6" in stdout
    assert "I(n)*env(n-2)^2" in stdout
    # asking for more delays than the window holds is a config error
    assert main(["basis-check", "--delays", "2", "--memory-depth", "2"]) == 2


def test_verbose_env_progress(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PADPD_VERBOSE", "1")
    out = tmp_path / "sig.csv"
    assert main(["gen-signal", "--set", "signal.n_symbols=2", "--out", str(out)]) == 0
    assert "generating OFDM drive" in capsys.readouterr().err
