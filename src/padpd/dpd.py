"""Indirect-learning digital predistortion.

The postinverse network is trained on (PA output / linear gain) -> PA input
pairs by `experiment.train_dpd`, the forward model's trainer, then copied
unchanged in front of the PA. Predistorting the drive and
re-running the PA should collapse the spectral regrowth;
`evaluate_linearization` reports ACPR before/after and the predistorted peak
(flagged, never clipped, when it exceeds `PEAK_CEILING_DEFAULT`).
"""

from __future__ import annotations

import numpy as np

from .dataset import N_FEATURE_ROWS, sample_features
from .metrics import acpr_db, psd_welch
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
    "estimate_linear_gain",
    "apply_dpd",
    "evaluate_linearization",
]

PEAK_CEILING_DEFAULT = 1.2


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
    bw_hz: float,
    impairments: ImpairmentConfig | None = None,
    segment: int = 1024,
) -> tuple[dict, dict]:
    """ACPR of the bare PA (its ``output`` for ``drive``) vs the predistorted
    cascade, over channels of ``bw_hz`` (`acpr_db`).

    Returns the result as the report writes it, plus a spectra dict (freqs
    and both PSDs) so callers can write plot-ready CSVs without recomputing.
    The result's ``improvement_db`` is the per-side ACPR drop, before minus
    after (positive = linearization helped), and ``peak_exceeded`` says
    whether the predistorted peak is over `PEAK_CEILING_DEFAULT`.
    """
    predistorted = apply_dpd(params, arch, drive, scale)
    y_after = transmit_chain(pa, predistorted, impairments)

    freqs, psd_before = psd_welch(output, segment)
    _, psd_after = psd_welch(y_after, segment)
    before, after = acpr_db(freqs, psd_before, bw_hz), acpr_db(freqs, psd_after, bw_hz)
    peak = float(predistorted.peak())
    result = {
        "acpr_before_db": [float(v) for v in before],
        "acpr_after_db": [float(v) for v in after],
        "improvement_db": [float(b - a) for b, a in zip(before, after)],
        "predistorted_peak": peak,
        "peak_ceiling": PEAK_CEILING_DEFAULT,
        "peak_exceeded": peak > PEAK_CEILING_DEFAULT,
    }
    return result, {"freqs_hz": freqs, "psd_before": psd_before, "psd_after": psd_after}
