"""Config-driven experiment pipelines shared by the CLI and the tests.

One config object describes the whole chain — OFDM drive, synthetic PA,
front-end impairment case, model family, training settings — and hashes to
a short id that is stamped into every output file. Pipelines are strictly
seeded, so rerunning a config reproduces its outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import codec
from .baselines import (
    GmpConfig,
    gmp_basis_at,
    gmp_fit_ls,
    gmp_table_config,
    mlp_baseline_nmse_db,
    mlp_baseline_spec,
    mlp_features_from_graphs,
    save_gmp,
    train_mlp_baseline,
)
from .complexity import (
    conv_net_coeff_count,
    conv_net_flops,
    gmp_coeff_count,
    gmp_flops,
    mlp_coeff_count,
    mlp_flops,
)
from .csvio import write_csv
from .dataset import build_dataset, feature_graphs, split_indices
from .dpd import evaluate_linearization, train_dpd
from .metrics import ChannelPlan, acpr_db, nmse_db, psd_welch, write_spectrum_csv
from .network import (
    ConvNetArch,
    forward_batch,
    init_params,
    load_params,
    mlp_forward,
    save_params,
)
from .pa import ImpairmentConfig, default_pa, transmit_chain
from .signals import ComplexSeq, OfdmConfig, generate_ofdm, papr_db
from .training import (
    AdamConfig,
    LmConfig,
    train_stage1_adam,
    train_stage2_lm,
    write_history_csv,
)

__all__ = [
    "SCHEMA_VERSION",
    "StageError",
    "ExperimentConfig",
    "experiment_config_from_dict",
    "config_hash",
    "run_experiment",
    "run_dpd_experiment",
    "sweep_memory",
]

SCHEMA_VERSION = 2

MODEL_KINDS = ("conv_net", "gmp", "rvtdnn", "arvtdnn", "dnn")


class StageError(RuntimeError):
    """A pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class ExperimentConfig:
    signal: OfdmConfig = OfdmConfig()
    pa_seed: int = 0
    pa_k_order: int = 5
    pa_q_depth: int = 4
    impairment_case: int = 1
    model: str = "conv_net"
    arch: ConvNetArch = ConvNetArch()
    adam: AdamConfig = AdamConfig(max_iters=10000)
    lm: LmConfig = LmConfig()
    gmp: GmpConfig = gmp_table_config()
    dataset_count: int = 14000
    split_seed: int = 0
    init_seed: int = 0
    ridge: float = 0.0
    drive_backoff_db: float = 3.0
    segment: int = 1024
    reuse_filter_from: str | None = None

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.impairment_case not in (1, 2, 3):
            raise ValueError("impairment_case must be 1, 2, or 3")
        if self.dataset_count < 10:
            raise ValueError("dataset_count must be at least 10")
        if self.drive_backoff_db < 0:
            raise ValueError("drive_backoff_db must be >= 0")

    def to_dict(self) -> dict:
        return codec.to_dict(self)


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a (possibly partial) plain dict; missing keys keep their defaults."""
    return codec.from_dict(ExperimentConfig, doc, ExperimentConfig())


def config_hash(cfg: ExperimentConfig) -> str:
    """Short stable id of the full config (sha256 prefix)."""
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _impairments(cfg: ExperimentConfig) -> ImpairmentConfig:
    return ImpairmentConfig.case(cfg.impairment_case)


def _complex(rows: np.ndarray) -> np.ndarray:
    return rows[:, 0] + 1j * rows[:, 1]


def _channel_plan(cfg: ExperimentConfig) -> ChannelPlan:
    return ChannelPlan.for_bandwidth(cfg.signal.occupied_bandwidth_hz)


# The arch fields that define the conv filter a saved model can lend a run.
_FILTER_FIELDS = ("memory_depth", "n_kernels", "kernel_rows", "kernel_cols", "conv_activation")


def _train_conv_net(cfg: ExperimentConfig, train, test):
    params = init_params(cfg.arch, cfg.init_seed)
    if cfg.reuse_filter_from:
        loaded, loaded_arch = load_params(cfg.reuse_filter_from)
        differ = [name for name in _FILTER_FIELDS if getattr(loaded_arch, name) != getattr(cfg.arch, name)]
        if differ:
            raise ValueError(f"saved filter does not match the configured architecture in {differ}")
        params = replace(params, conv_kernels=loaded.conv_kernels.copy(),
                         conv_biases=loaded.conv_biases.copy())
        hist1 = np.zeros((0, 3))
    else:
        params, hist1 = train_stage1_adam(params, cfg.arch, train, cfg.adam, test)
    params, lm_result = train_stage2_lm(params, cfg.arch, train, cfg.lm)
    return params, hist1, lm_result


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> dict:
    """Forward-modeling pipeline; returns (and optionally writes) the report."""
    chash = config_hash(cfg)

    x = _run_stage("signal", generate_ofdm, cfg.signal)
    pa = _run_stage("pa", default_pa, cfg.pa_seed, cfg.pa_k_order, cfg.pa_q_depth)
    imp = _run_stage("impairment", _impairments, cfg)
    y = _run_stage("transmit", transmit_chain, pa, x, imp)
    m = cfg.arch.memory_depth
    train, test = _run_stage(
        "dataset", build_dataset, x, y, m, cfg.dataset_count, cfg.split_seed
    )

    results: dict = {
        "model": cfg.model,
        "papr_db": float(papr_db(x)),
        "scale": float(train.scale),
        "n_train": len(train),
        "n_test": len(test),
    }
    xs = x.scaled(train.scale)
    ys = y.data * train.scale
    n_idx = m + np.arange(cfg.dataset_count)
    ref_ordered = ys[n_idx]
    hist1 = lm_result = None

    if cfg.model == "gmp":
        def fit_gmp():
            tr_rel, te_rel = split_indices(cfg.dataset_count, cfg.split_seed)
            lo, hi = cfg.gmp.max_past, cfg.dataset_count + m - cfg.gmp.max_future
            tr_abs = tr_rel + m
            te_abs = te_rel + m
            tr_abs = tr_abs[(tr_abs >= lo) & (tr_abs < hi)]
            te_abs = te_abs[(te_abs >= lo) & (te_abs < hi)]
            basis_tr = gmp_basis_at(xs, cfg.gmp, tr_abs)
            model = gmp_fit_ls(basis_tr, ys[tr_abs], cfg.gmp, cfg.ridge)
            return model, tr_abs, te_abs

        model, tr_abs, te_abs = _run_stage("train", fit_gmp)
        pred_train = gmp_basis_at(xs, cfg.gmp, tr_abs) @ model.coeffs
        pred_test = gmp_basis_at(xs, cfg.gmp, te_abs) @ model.coeffs
        valid = n_idx[(n_idx >= cfg.gmp.max_past) & (n_idx < len(xs) - cfg.gmp.max_future)]
        pred_ordered = gmp_basis_at(xs, cfg.gmp, valid) @ model.coeffs
        ref_ordered = ys[valid]
        tr_ref, te_ref = ys[tr_abs], ys[te_abs]
        results.update(coeff_count=gmp_coeff_count(cfg.gmp), flops=gmp_flops(cfg.gmp))
        results["ridge"] = float(cfg.ridge)

        def save_model(path):
            save_gmp(model, path)
    else:
        if cfg.model == "conv_net":
            conv_params, hist1, lm_result = _run_stage("train", _train_conv_net, cfg, train, test)

            def predict(graphs):
                return forward_batch(conv_params, cfg.arch, graphs)

            def save_model(path):
                save_params(conv_params, cfg.arch, path)

            results.update(
                coeff_count=conv_net_coeff_count(cfg.arch),
                flops=conv_net_flops(cfg.arch),
                stage2={
                    "iters": lm_result.n_iters,
                    "converged": bool(lm_result.converged),
                    "reason": lm_result.reason,
                    # a rejected row carries the mse of the last accepted step
                    "final_mse": float(lm_result.history[-1, 1])
                    if lm_result.history.size
                    else None,
                },
            )
        else:
            spec = mlp_baseline_spec(cfg.model)
            layers, hist1 = _run_stage(
                "train", train_mlp_baseline, spec, train, cfg.adam, cfg.init_seed
            )

            def predict(graphs):
                return mlp_forward(layers, mlp_features_from_graphs(graphs, spec.feature_kind))

            save_model = None  # the MLP baselines write no model file
            widths = spec.widths(m)
            results.update(coeff_count=mlp_coeff_count(widths), flops=mlp_flops(widths), widths=widths)
        results["stage1"] = {
            "iters": int(hist1.shape[0]),
            "final_mse": float(hist1[-1, 1]) if hist1.size else None,
        }
        pred_train = _complex(predict(train.graphs))
        pred_test = _complex(predict(test.graphs))
        pred_ordered = _complex(predict(feature_graphs(xs, m, cfg.dataset_count, m)))
        tr_ref, te_ref = _complex(train.labels), _complex(test.labels)

    def compute_metrics():
        results["nmse_train_db"] = nmse_db(pred_train, tr_ref)
        results["nmse_test_db"] = nmse_db(pred_test, te_ref)
        plan = _channel_plan(cfg)
        freqs, psd_out = psd_welch(y, cfg.segment)
        lo_db, hi_db = acpr_db(freqs, psd_out, plan)
        results["acpr_output_db"] = [lo_db, hi_db]
        err = ComplexSeq(pred_ordered - ref_ordered, x.sample_rate_hz)
        ref_seq = ComplexSeq(ref_ordered, x.sample_rate_hz)
        ef, err_psd = psd_welch(err, cfg.segment)
        _, ref_psd = psd_welch(ref_seq, cfg.segment)
        return ef, ref_psd, err_psd

    ef, ref_psd, err_psd = _run_stage("metrics", compute_metrics)

    report = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": chash,
        "config": cfg.to_dict(),
        "results": results,
    }

    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        tag = f"config_hash={chash}"
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        if hist1 is not None and hist1.size:
            write_history_csv(hist1, out / "history_stage1.csv", tag)
        if lm_result is not None and lm_result.history.size:
            it, mse, mu, accepted, gnorm = lm_result.history.T
            write_csv(out / "history_stage2.csv", ["iter", "mse", "mu", "accepted", "grad_norm"],
                      [it.astype(int), mse, mu, accepted.astype(int), gnorm], tag)
        err_db = 10.0 * np.log10(np.maximum(err_psd, 1e-30))
        ref_db = 10.0 * np.log10(np.maximum(ref_psd, 1e-30))
        write_csv(out / "error_spectrum.csv", ["freq_hz", "ref_psd_db", "error_psd_db"],
                  [ef, ref_db, err_db], tag)
        if save_model is not None:
            save_model(out / "model.json")
    return report


def run_dpd_experiment(cfg: ExperimentConfig, output_dir=None) -> dict:
    """Indirect-learning DPD pipeline; returns (and optionally writes) a report."""
    if cfg.model != "conv_net":
        raise ValueError("DPD is implemented for the conv_net model only")
    chash = config_hash(cfg)

    x = _run_stage("signal", generate_ofdm, cfg.signal)
    drive = x.scaled(10.0 ** (-cfg.drive_backoff_db / 20.0))
    pa = _run_stage("pa", default_pa, cfg.pa_seed, cfg.pa_k_order, cfg.pa_q_depth)
    imp = _run_stage("impairment", _impairments, cfg)

    params, info = _run_stage(
        "train",
        train_dpd,
        pa,
        drive,
        cfg.arch,
        cfg.adam,
        cfg.lm,
        cfg.dataset_count,
        cfg.split_seed,
        cfg.init_seed,
        imp,
    )
    result, spectra = _run_stage(
        "linearize",
        evaluate_linearization,
        pa,
        drive,
        params,
        cfg.arch,
        info["scale"],
        _channel_plan(cfg),
        info["gain_estimate"],
        info["nmse_inverse_db"],
        imp,
        cfg.segment,
    )

    report = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": chash,
        "config": cfg.to_dict(),
        "result": result.to_dict(),
    }
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        tag = f"config_hash={chash}"
        (out / "dpd_result.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        write_spectrum_csv(spectra["freqs_hz"], spectra["psd_before"],
                           out / "spectrum_before.csv", tag)
        write_spectrum_csv(spectra["freqs_hz"], spectra["psd_after"],
                           out / "spectrum_after.csv", tag)
        save_params(params, cfg.arch, out / "inverse_model.json")
    return report


def sweep_memory(cfg: ExperimentConfig, m_values, output_dir=None) -> list[dict]:
    """Repeat the modeling experiment across memory depths.

    Each run rebuilds the PA with a matched memory span (q_depth = M + 1)
    and resizes the feature graphs; kernel width shrinks if a depth is too
    small to host it. Returns one row per depth.
    """
    m_values = [int(v) for v in m_values]
    if not m_values:
        raise ValueError("need at least one memory depth")
    rows = []
    for m in m_values:
        arch = replace(
            cfg.arch,
            memory_depth=m,
            kernel_cols=min(cfg.arch.kernel_cols, m + 1),
        )
        sub = replace(cfg, arch=arch, pa_q_depth=m + 1)
        report = run_experiment(sub)
        rows.append(
            {
                "memory_depth": m,
                "coeff_count": report["results"]["coeff_count"],
                "nmse_train_db": report["results"]["nmse_train_db"],
                "nmse_test_db": report["results"]["nmse_test_db"],
            }
        )
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = ["memory_depth", "coeff_count", "nmse_train_db", "nmse_test_db"]
        write_csv(out / "memory_sweep.csv", header, [[r[k] for r in rows] for k in header],
                  f"config_hash={config_hash(cfg)}")
    return rows
