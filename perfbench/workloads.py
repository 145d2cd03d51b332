"""The benchmark's workloads: the pipeline calls one operation makes, and the
checks each call's output must pass.

Every workload runs padpd's public pipelines (`run_experiment`,
`run_dpd_experiment`) through ``padpd.experiment`` so a tracer can wrap
them. On `model-gmp` and `model-mlp` the workload seed becomes the OFDM
payload seed and the train/test split seed; the model's initialisation seed,
the PA and everything else keep the package defaults unless listed below.
The two conv workloads keep the package's default inputs at every seed:
acceptance criteria 4 and 5 are defined on them and do not hold on every
other payload/split seed, and DPD quality swings more between seeds than its
bound (README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import padpd.experiment as experiment
from padpd.experiment import ExperimentConfig
from padpd.signals import OfdmConfig
from padpd.training import AdamConfig

MLP_MODELS = ("rvtdnn", "arvtdnn", "dnn")


def _base(seed: int, **fields) -> ExperimentConfig:
    return ExperimentConfig(signal=OfdmConfig(seed=seed), split_seed=seed, **fields)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_model(report: dict, out: Path) -> list[str]:
    res = report["results"]
    if not _finite(res["nmse_train_db"], res["nmse_test_db"], *res["acpr_output_db"]):
        return [f"{res['model']}: non-finite NMSE/ACPR"]
    return []


def _check_conv(report: dict, out: Path) -> list[str]:
    """Acceptance criteria 4 and 5 on a single conv modeling call."""
    problems = _check_model(report, out)
    res = report["results"]
    train, test = res["nmse_train_db"], res["nmse_test_db"]
    if not (test <= -30.0 and abs(train - test) <= 1.0):
        problems.append(f"criterion 4: test NMSE {test:.2f} dB (<= -30), gap {abs(train - test):.2f} dB (<= 1)")
    lm = res["stage2"]
    if not (lm["converged"] and lm["reason"] in ("gradient", "stalled") and lm["iters"] <= 200):
        problems.append(f"criterion 5: LM stopped by {lm['reason']!r} after {lm['iters']} iterations")
    return problems


def _check_dpd(report: dict, out: Path) -> list[str]:
    res = report["result"]
    problems = []
    if not _finite(*res["improvement_db"], res["nmse_inverse_db"], res["predistorted_peak"]):
        problems.append("dpd: non-finite ACPR/NMSE/peak")
    if res["peak_exceeded"]:
        problems.append(f"dpd: predistorted peak {res['predistorted_peak']:.3f} exceeds the ceiling")
    return problems


def _model_quality(reports: list[dict], split: str = "test") -> dict:
    nmse = sorted(r["results"][f"nmse_{split}_db"] for r in reports)
    return {
        "nmse_depth_db": -nmse[len(nmse) // 2],
        "acpr_db": -max(max(r["results"]["acpr_output_db"]) for r in reports),
        "nmse_test_worst_db": max(r["results"]["nmse_test_db"] for r in reports),
    }


def _dpd_quality(reports: list[dict]) -> dict:
    res = reports[0]["result"]
    return {
        "nmse_depth_db": -res["nmse_inverse_db"],
        "acpr_db": -max(res["acpr_after_db"]),
        "acpr_improvement_db": min(res["improvement_db"]),
        "nmse_inverse_db": res["nmse_inverse_db"],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list[ExperimentConfig]]  # seed -> the calls of one operation
    pipeline: str  # "run_experiment" or "run_dpd_experiment"
    check: Callable[[dict, Path], list[str]]
    quality: Callable[[list[dict]], dict]

    def call(self, cfg: ExperimentConfig, out: Path) -> dict:
        # run_experiment(model="gmp") saves its model before creating the
        # output directory and fails on a new one, so the directory is made first.
        out.mkdir(parents=True, exist_ok=True)
        # Looked up on the module at call time, so a tracer's wrapper is used.
        return getattr(experiment, self.pipeline)(cfg, out)


WORKLOADS = {
    w.name: w
    for w in (
        # Default case-1 conv modeling on the package's default inputs (the
        # seed is not used); stage-1 Adam cut from 10 000 to 300 iterations, the
        # shortest run that meets criteria 4/5 with margin there (README.md).
        Workload("model-conv", lambda s: [ExperimentConfig(adam=AdamConfig(max_iters=300))],
                 "run_experiment", _check_conv, _model_quality),
        # Indirect-learning DPD on the package's default inputs (the seed is not
        # used); 5000 graphs and 2000 Adam iterations (see README.md for why this
        # point on the non-monotone quality curve).
        Workload("dpd-conv",
                 lambda s: [ExperimentConfig(dataset_count=5000, adam=AdamConfig(max_iters=2000))],
                 "run_dpd_experiment", _check_dpd, _dpd_quality),
        # GMP least squares over impairment cases 1-3. Its held-out NMSE swings by
        # ~10 dB between seeds, so the bounded NMSE figure uses the train split.
        Workload("model-gmp",
                 lambda s: [_base(s, model="gmp", impairment_case=c) for c in (1, 2, 3)],
                 "run_experiment", _check_model, lambda r: _model_quality(r, "train")),
        # The three MLP baselines with 200 Adam iterations each.
        Workload("model-mlp",
                 lambda s: [_base(s, model=m, adam=AdamConfig(max_iters=200)) for m in MLP_MODELS],
                 "run_experiment", _check_model, _model_quality),
    )
}


def with_adam_iters(configs: list[ExperimentConfig], iters: int) -> list[ExperimentConfig]:
    """The same calls with Adam shortened further (used by the tracing test)."""
    return [replace(c, adam=replace(c.adam, max_iters=iters)) for c in configs]
