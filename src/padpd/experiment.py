"""Config-driven experiment pipelines shared by the CLI and the tests.

One config object describes the whole chain — OFDM drive, synthetic PA,
front-end impairment case, model family, training settings — and hashes to
a short id that is stamped into every output file. Pipelines are strictly
seeded, so rerunning a config reproduces its outputs byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import codec
from .baselines import (
    _QR_BLOCK,
    GmpConfig,
    gmp_basis_at,
    gmp_envelope_powers,
    gmp_fit_ls,
    gmp_table_config,
    mlp_baseline_spec,
    mlp_features_from_graphs,
    save_gmp,
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
from .dataset import build_dataset, feature_graphs, joint_scale, split_indices
from .dpd import estimate_linear_gain, evaluate_linearization
from .metrics import acpr_db, nmse_db, psd_welch, write_spectrum_csv
from .network import (
    ConvNetArch,
    forward_batch,
    init_params,
    load_params,
    mlp_forward,
    save_params,
)
from .pa import ImpairmentConfig, default_pa, transmit_chain
from .signals import ComplexSeq, OfdmConfig, _even_slices, generate_ofdm, papr_db
from .training import (
    AdamConfig,
    LmConfig,
    train_mlp_baseline,
    train_stage1_adam,
    train_stage2_lm,
)

__all__ = [
    "SCHEMA_VERSION",
    "StageError",
    "ExperimentConfig",
    "experiment_config_from_dict",
    "config_hash",
    "run_experiment",
    "run_dpd_experiment",
    "train_dpd",
    "sweep_memory",
]

SCHEMA_VERSION = 4

MODEL_KINDS = ("conv_net", "gmp", "rvtdnn", "arvtdnn", "dnn")


class StageError(RuntimeError):
    """A pipeline failure tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def _gmp_rows(gmp: GmpConfig, m: int, count: int, n_samples: int) -> np.ndarray:
    """The dataset's sample indices, m..m+count-1, at which every term of the
    basis stays inside a signal of ``n_samples``: one contiguous run."""
    return np.arange(max(m, gmp.max_past), min(m + count, n_samples - gmp.max_future))


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
        if self.pa_k_order < 2:
            raise ValueError(f"pa_k_order must be >= 2 to realize gain compression, got {self.pa_k_order}")
        if self.pa_q_depth < 1:
            raise ValueError(f"pa_q_depth must be >= 1, got {self.pa_q_depth}")
        for name in ("pa_seed", "split_seed", "init_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.segment < 2:
            raise ValueError(f"segment must be >= 2, got {self.segment}")
        # ACPR's outer band edge, 1.5 fs/oversampling, must lie below psd_welch's
        # span edge, (2*((n-1)//2) + 1) * fs/(2n); compared in integers, fs cancels
        sig, n = self.signal, self.segment
        if 3 * n >= sig.oversampling * (2 * ((n - 1) // 2) + 1):
            raise ValueError(f"signal.oversampling {sig.oversampling} puts the outer ACPR band edge at "
                             f"{1.5 * sig.occupied_bandwidth_hz:g} Hz, outside the Welch span (segment {n})")
        if self.reuse_filter_from is not None:
            if self.model != "conv_net":
                raise ValueError(f"reuse_filter_from needs model 'conv_net', got {self.model!r}")
            if not self.reuse_filter_from:
                raise ValueError("reuse_filter_from must be a path or null, got an empty string")
        # run_experiment's error spectrum has a sample per dataset row, but for
        # gmp only per row whose basis stays inside the signal.
        m = self.arch.memory_depth
        rows = self.dataset_count
        if self.model == "gmp":
            n = self.signal.n_symbols * self.signal.n_fft
            if m + rows > n:  # past the signal's end: the dataset stage's error
                n = m + rows + self.gmp.max_future
            rows = len(_gmp_rows(self.gmp, m, rows, n))
        if rows < self.segment:
            raise ValueError(
                f"dataset_count {self.dataset_count} leaves {rows} error-spectrum samples "
                f"for model {self.model!r}, fewer than one segment ({self.segment})"
            )

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


def _report(cfg: ExperimentConfig, key: str, body: dict, output_dir, name: str):
    """A run's report, ``body`` under ``key`` in the envelope that names the
    schema and the config; with an ``output_dir``, made if need be, it is
    written there as ``name``. Returns the report, the directory (None
    without one) and the tag the run's CSV files carry."""
    chash = config_hash(cfg)
    report = {"schema_version": SCHEMA_VERSION, "config_hash": chash, "config": cfg.to_dict(), key: body}
    out = None
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, out, f"config_hash={chash}"


def _complex(rows: np.ndarray) -> np.ndarray:
    return rows[:, 0] + 1j * rows[:, 1]


# The arch fields that define the conv filter a saved model can lend a run.
_FILTER_FIELDS = ("memory_depth", "n_kernels", "kernel_rows", "kernel_cols", "conv_activation")


def _filter_mismatch(saved: ConvNetArch, arch: ConvNetArch) -> list[str]:
    """The filter fields in which a saved model's arch differs from ``arch``."""
    return [name for name in _FILTER_FIELDS if getattr(saved, name) != getattr(arch, name)]


def _train_conv_net(cfg: ExperimentConfig, train, test=None):
    params = init_params(cfg.arch, cfg.init_seed)
    if cfg.reuse_filter_from:
        loaded, loaded_arch = load_params(cfg.reuse_filter_from)
        if differ := _filter_mismatch(loaded_arch, cfg.arch):
            raise ValueError(f"saved filter does not match the configured architecture in {differ}")
        params = replace(params, conv_kernels=loaded.conv_kernels.copy(),
                         conv_biases=loaded.conv_biases.copy())
        hist1 = np.zeros((0, 3))
    else:
        params, hist1 = train_stage1_adam(params, cfg.arch, train, cfg.adam, test)
    params, lm_result = train_stage2_lm(params, cfg.arch, train, cfg.lm)
    return params, hist1, lm_result


@dataclass
class _Fit:
    """A trained model's prediction ``pred`` and the scaled PA output ``ref``
    over a contiguous run of ordered samples, under the dataset ``scale``; the
    train and test splits' positions in that run, in split order; the model's
    report fields; and its files, by name, as writers of (path, tag)."""

    scale: float
    pred: np.ndarray
    ref: np.ndarray
    train_pos: np.ndarray
    test_pos: np.ndarray
    results: dict
    files: dict


def _fit_gmp(cfg: ExperimentConfig, x: ComplexSeq, y: ComplexSeq) -> _Fit:
    m = cfg.arch.memory_depth
    # gmp fits on the scaled signals and needs only the dataset's scale
    scale = _run_stage("dataset", joint_scale, x, y, m, cfg.dataset_count)
    # the dataset's samples and those its basis reaches past them, up to the signal's end
    head = m + cfg.dataset_count + cfg.gmp.max_future
    xs, ys = x.with_data(x.data[:head] * scale), y.data[:head] * scale
    rows = _gmp_rows(cfg.gmp, m, cfg.dataset_count, len(xs))
    # a split row's leading envelopes also stay inside the dataset
    lo, hi = cfg.gmp.max_past, cfg.dataset_count + m - cfg.gmp.max_future
    tr, te = (rel + m for rel in split_indices(cfg.dataset_count, cfg.split_seed))
    tr, te = tr[(tr >= lo) & (tr < hi)], te[(te >= lo) & (te < hi)]
    # the basis is never whole: the fit takes it one QR block of train rows at a
    # time, the prediction in near-equal blocks of the ordered rows, none of
    # one row (numpy multiplies a one-row matrix by another path)
    powers = gmp_envelope_powers(xs.data, cfg.gmp)
    model = gmp_fit_ls(lambda part: gmp_basis_at(xs, cfg.gmp, tr[part], powers), ys[tr], cfg.gmp, cfg.ridge)
    pred = np.empty(len(rows), dtype=np.complex128)
    for part in _even_slices(len(rows), _QR_BLOCK):
        pred[part] = gmp_basis_at(xs, cfg.gmp, rows[part], powers) @ model.coeffs
    results = {"coeff_count": gmp_coeff_count(cfg.gmp), "flops": gmp_flops(cfg.gmp), "ridge": float(cfg.ridge)}
    return _Fit(scale, pred, ys[rows], tr - rows[0], te - rows[0], results,
                {"model.json": lambda path, tag: save_gmp(model, path)})


def _fit_network(cfg: ExperimentConfig, x: ComplexSeq, y: ComplexSeq) -> _Fit:
    m, count = cfg.arch.memory_depth, cfg.dataset_count
    train, test = _run_stage("dataset", build_dataset, x, y, m, count, cfg.split_seed)
    xs, ref = x.with_data(x.data[: m + count] * train.scale), y.data[m : m + count] * train.scale
    files = {}
    if cfg.model == "conv_net":
        params, hist1, lm_result = _train_conv_net(cfg, train, test)

        def predict(graphs):
            return forward_batch(params, cfg.arch, graphs)

        hist2 = lm_result.history
        stage2 = {
            "iters": lm_result.n_iters,
            "converged": bool(lm_result.converged),
            "reason": lm_result.reason,
            # a rejected row carries the mse of the last accepted step
            "final_mse": float(hist2[-1, 1]) if hist2.size else None,
        }
        results = {"coeff_count": conv_net_coeff_count(cfg.arch), "flops": conv_net_flops(cfg.arch), "stage2": stage2}
        files["model.json"] = lambda path, tag: save_params(params, cfg.arch, path)
        if hist2.size:
            it, mse, mu, accepted, gnorm = hist2.T
            files["history_stage2.csv"] = lambda path, tag: write_csv(
                path, ["iter", "mse", "mu", "accepted", "grad_norm"],
                [it.astype(int), mse, mu, accepted.astype(int), gnorm], tag)
    else:
        spec = mlp_baseline_spec(cfg.model)
        layers, hist1 = train_mlp_baseline(spec, train, cfg.adam, cfg.init_seed)

        def predict(graphs):
            return mlp_forward(layers, mlp_features_from_graphs(graphs, spec.feature_kind))

        widths = spec.widths(m)
        results = {"coeff_count": mlp_coeff_count(widths), "flops": mlp_flops(widths), "widths": widths}
    results["stage1"] = {"iters": int(hist1.shape[0]), "final_mse": float(hist1[-1, 1]) if hist1.size else None}
    if hist1.size:
        files["history_stage1.csv"] = lambda path, tag: write_csv(
            path, ["iter", "mse_train", "mse_test"][: hist1.shape[1]], [hist1[:, 0].astype(int), *hist1[:, 1:].T], tag)
    pred = _complex(predict(feature_graphs(xs, m, count, m)))
    return _Fit(train.scale, pred, ref, *split_indices(count, cfg.split_seed), results, files)


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> dict:
    """Forward-modeling pipeline; returns (and optionally writes) the report.

    Every model family is scored the same way: its train and test
    predictions and references are rows of one prediction over the ordered
    samples and of the PA output at those samples.
    """
    x = _run_stage("signal", generate_ofdm, cfg.signal)
    pa = _run_stage("pa", default_pa, cfg.pa_seed, cfg.pa_k_order, cfg.pa_q_depth)
    imp = ImpairmentConfig.case(cfg.impairment_case)
    y = _run_stage("transmit", transmit_chain, pa, x, imp)
    fit = _run_stage("train", _fit_gmp if cfg.model == "gmp" else _fit_network, cfg, x, y)
    # n_train and n_test count the rows each split's NMSE scores: gmp drops those its basis cannot reach
    results = {"model": cfg.model, "papr_db": float(papr_db(x)), "scale": float(fit.scale), **fit.results,
               "n_train": len(fit.train_pos), "n_test": len(fit.test_pos)}

    def compute_metrics():
        for split, pos in (("train", fit.train_pos), ("test", fit.test_pos)):
            results[f"nmse_{split}_db"] = nmse_db(fit.pred[pos], fit.ref[pos])
        freqs, psd_out = psd_welch(y, cfg.segment)
        lo_db, hi_db = acpr_db(freqs, psd_out, cfg.signal.occupied_bandwidth_hz)
        results["acpr_output_db"] = [lo_db, hi_db]
        err = ComplexSeq(fit.pred - fit.ref, x.sample_rate_hz)
        ref_seq = ComplexSeq(fit.ref, x.sample_rate_hz)
        ef, err_psd = psd_welch(err, cfg.segment)
        _, ref_psd = psd_welch(ref_seq, cfg.segment)
        return ef, ref_psd, err_psd

    ef, ref_psd, err_psd = _run_stage("metrics", compute_metrics)

    report, out, tag = _report(cfg, "results", results, output_dir, "report.json")
    if out is not None:
        err_db = 10.0 * np.log10(np.maximum(err_psd, 1e-30))
        ref_db = 10.0 * np.log10(np.maximum(ref_psd, 1e-30))
        write_csv(out / "error_spectrum.csv", ["freq_hz", "ref_psd_db", "error_psd_db"],
                  [ef, ref_db, err_db], tag)
        for name, write in fit.files.items():
            write(out / name, tag)
    return report


def train_dpd(cfg: ExperimentConfig, drive: ComplexSeq, output: ComplexSeq):
    """Train the postinverse model on one capture: ``drive`` and the PA's ``output``.

    Indirect learning: the graphs come from the output over its linear gain,
    the labels from the drive, and the forward model's trainer fits them, so
    a saved filter is reused here too. Returns the parameters, the gain, the
    dataset scale the parameters expect their inputs in, and the held-out
    inverse NMSE, scored once, after LM: stage 1 never sees the held-out split.
    """
    gain = estimate_linear_gain(drive, output)
    train, test = build_dataset(output, drive, cfg.arch.memory_depth, cfg.dataset_count, cfg.split_seed, gain)
    params, _, _ = _train_conv_net(cfg, train)
    pred = _complex(forward_batch(params, cfg.arch, test.graphs))
    return params, gain, train.scale, nmse_db(pred, _complex(test.labels))


def run_dpd_experiment(cfg: ExperimentConfig, output_dir=None) -> dict:
    """Indirect-learning DPD pipeline; returns (and optionally writes) a report."""
    if cfg.model != "conv_net":
        raise ValueError("DPD is implemented for the conv_net model only")

    drive = _run_stage("signal", generate_ofdm, cfg.signal).scaled(10.0 ** (-cfg.drive_backoff_db / 20.0))
    pa = _run_stage("pa", default_pa, cfg.pa_seed, cfg.pa_k_order, cfg.pa_q_depth)
    imp = ImpairmentConfig.case(cfg.impairment_case)
    y = _run_stage("transmit", transmit_chain, pa, drive, imp)

    params, gain, scale, nmse_inverse_db = _run_stage("train", train_dpd, cfg, drive, y)
    result, spectra = _run_stage("linearize", evaluate_linearization, pa, drive, y, params, cfg.arch,
                                 scale, cfg.signal.occupied_bandwidth_hz, imp, cfg.segment)
    result.update(gain_estimate=float(gain), nmse_inverse_db=float(nmse_inverse_db))

    report, out, tag = _report(cfg, "result", result, output_dir, "dpd_result.json")
    if out is not None:
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
    small to host it. A saved filter (``reuse_filter_from``) must fit every
    depth's arch, which is checked before any run starts. Returns one row per
    depth.
    """
    m_values = [int(v) for v in m_values]
    if not m_values:
        raise ValueError("need at least one memory depth")
    archs = [replace(cfg.arch, memory_depth=m, kernel_cols=min(cfg.arch.kernel_cols, m + 1))
             for m in m_values]
    if cfg.reuse_filter_from:
        saved = load_params(cfg.reuse_filter_from)[1]
        differ = {m: d for m, arch in zip(m_values, archs) if (d := _filter_mismatch(saved, arch))}
        if differ:
            raise ValueError(f"reuse_filter_from: the saved filter does not fit every memory depth; by depth, "
                             f"it differs in {differ}")
    rows = []
    for m, arch in zip(m_values, archs):
        report = run_experiment(replace(cfg, arch=arch, pa_q_depth=m + 1))
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
