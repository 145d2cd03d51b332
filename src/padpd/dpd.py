"""Indirect-learning digital predistortion.

The postinverse network is trained on (PA output / linear gain) -> PA input
pairs by `experiment.train_dpd`, the forward model's trainer, then copied
unchanged in front of the PA. Predistorting the drive and
re-running the PA should collapse the spectral regrowth; the result object
reports ACPR before/after, the inverse-model accuracy, and the predistorted
peak (flagged, never clipped, when it exceeds the configured ceiling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_FEATURE_ROWS, sample_features
from .metrics import ChannelPlan, acpr_db, psd_welch
from .network import ConvNetArch, ConvNetParams, ConvStream, blocks, conv_net
from .pa import ImpairmentConfig, PolyPaModel, transmit_chain
from .signals import ComplexSeq

# Called here only for a drive of one graph: the apply streams its samples
# through a `ConvStream`. perfbench/spans.py still binds its forward and
# feature-graph spans under these names.
from .dataset import feature_graphs
from .network import forward_batch

# Not called here: DPD trains through `experiment.train_dpd`. perfbench/spans.py
# still binds its stage spans under these names.
from .training import train_stage1_adam, train_stage2_lm  # noqa: F401

__all__ = [
    "PEAK_CEILING_DEFAULT",
    "DpdResult",
    "estimate_linear_gain",
    "apply_dpd",
    "evaluate_linearization",
]

PEAK_CEILING_DEFAULT = 1.2


@dataclass(frozen=True)
class DpdResult:
    """Linearization outcome: spectra ratios plus inverse-model quality."""

    acpr_before_db: tuple
    acpr_after_db: tuple
    nmse_inverse_db: float
    gain_estimate: float
    predistorted_peak: float
    peak_ceiling: float = PEAK_CEILING_DEFAULT

    def __post_init__(self):
        if not self.gain_estimate > 0:
            raise ValueError("gain_estimate must be positive")

    @property
    def peak_exceeded(self) -> bool:
        return self.predistorted_peak > self.peak_ceiling

    @property
    def improvement_db(self) -> tuple:
        """Per-side ACPR drop (positive = linearization helped)."""
        return (
            self.acpr_before_db[0] - self.acpr_after_db[0],
            self.acpr_before_db[1] - self.acpr_after_db[1],
        )

    def to_dict(self) -> dict:
        return {
            "acpr_before_db": [float(v) for v in self.acpr_before_db],
            "acpr_after_db": [float(v) for v in self.acpr_after_db],
            "improvement_db": [float(v) for v in self.improvement_db],
            "nmse_inverse_db": float(self.nmse_inverse_db),
            "gain_estimate": float(self.gain_estimate),
            "predistorted_peak": float(self.predistorted_peak),
            "peak_ceiling": float(self.peak_ceiling),
            "peak_exceeded": bool(self.peak_exceeded),
        }


def estimate_linear_gain(x: ComplexSeq, y: ComplexSeq) -> float:
    """|g| of the least-squares scalar fit y ~ g*x."""
    if len(x) != len(y):
        raise ValueError("sequences must have equal length")
    xv, yv = x.data, y.data
    denom = float(np.vdot(xv, xv).real)
    if denom == 0.0:
        raise ValueError("cannot estimate gain from an all-zero input")
    g = np.vdot(xv, yv) / denom
    mag = float(np.abs(g))
    if mag == 0.0:
        raise ValueError("estimated gain is zero; output is orthogonal to input")
    return mag


def apply_dpd(
    params: ConvNetParams,
    arch: ConvNetArch,
    x: ComplexSeq,
    scale: float,
) -> ComplexSeq:
    """Predistort a drive signal with the trained inverse model.

    ``scale`` is the dataset normalization the model was trained under; the
    input is scaled into model units and the output scaled back. The first
    memory_depth samples have no full history and pass through unmodified.
    The rest go through in `blocks`, the cut every conv-model pass uses: each
    block's samples are scaled and their features taken into one set of
    buffers, and a `ConvStream` runs the conv layer once per sample. So no
    whole-drive copy but the output is made.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    m = arch.memory_depth
    if len(x) <= m:
        raise ValueError(f"signal needs more than {m} samples")
    out = x.data.copy()
    if len(x) == m + 1:  # a lone graph, which forward_batch runs as two copies
        h = forward_batch(params, arch, feature_graphs(x.scaled(scale), m, 1, m)).T
        out[m:] = (h[0] + 1j * h[1]) / scale
        return x.with_data(out)
    cuts = blocks(len(x) - m)
    n_max = max(b.stop - b.start for b in cuts)
    stream = ConvStream(conv_net(params, arch), n_max)
    z = np.empty(n_max + m, dtype=np.complex128)
    feats = np.empty((N_FEATURE_ROWS, n_max + m))
    for b in cuts:  # graphs m + b.start.. read samples b.start.. on
        w = b.stop - b.start + m
        np.multiply(x.data[b.start : b.stop + m], scale, out=z[:w])
        h = stream.forward(sample_features(z[:w], out=feats[:, :w]))
        out[m + b.start : m + b.stop] = (h[0] + 1j * h[1]) / scale
    return x.with_data(out)


def evaluate_linearization(
    pa: PolyPaModel,
    drive: ComplexSeq,
    output: ComplexSeq,
    params: ConvNetParams,
    arch: ConvNetArch,
    scale: float,
    plan: ChannelPlan,
    gain_estimate: float,
    nmse_inverse_db: float = float("nan"),
    impairments: ImpairmentConfig | None = None,
    segment: int = 1024,
    peak_ceiling: float = PEAK_CEILING_DEFAULT,
) -> tuple[DpdResult, dict]:
    """ACPR of the bare PA (its ``output`` for ``drive``) vs the predistorted cascade.

    Returns the result plus a spectra dict (freqs and both PSDs) so callers
    can write plot-ready CSVs without recomputing.
    """
    predistorted = apply_dpd(params, arch, drive, scale)
    y_after = transmit_chain(pa, predistorted, impairments)

    freqs, psd_before = psd_welch(output, segment)
    _, psd_after = psd_welch(y_after, segment)
    result = DpdResult(
        acpr_before_db=acpr_db(freqs, psd_before, plan),
        acpr_after_db=acpr_db(freqs, psd_after, plan),
        nmse_inverse_db=float(nmse_inverse_db),
        gain_estimate=float(gain_estimate),
        predistorted_peak=predistorted.peak(),
        peak_ceiling=peak_ceiling,
    )
    spectra = {
        "freqs_hz": freqs,
        "psd_before": psd_before,
        "psd_after": psd_after,
        "predistorted": predistorted,
        "output_before": output,
        "output_after": y_after,
    }
    return result, spectra
