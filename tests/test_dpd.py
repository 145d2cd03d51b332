"""Tests for indirect-learning predistortion plumbing.

Full-scale linearization quality is exercised by the acceptance suite; here
we pin the gain estimator, the result object, the predistorter's signal
handling, and a short deterministic train/evaluate round trip.
"""

import tracemalloc

import numpy as np
import pytest

from padpd import experiment, network
from padpd.dataset import feature_graphs
from padpd.dpd import DpdResult, apply_dpd, estimate_linear_gain, evaluate_linearization
from padpd.experiment import ExperimentConfig, train_dpd
from padpd.metrics import ChannelPlan
from padpd.network import ConvNetArch, ConvNetParams, forward_batch, init_params
from padpd.pa import PolyPaModel, default_pa, pa_forward, transmit_chain
from padpd.signals import ComplexSeq, OfdmConfig, generate_ofdm
from padpd.training import AdamConfig, LmConfig

RNG = np.random.default_rng(404)


def _seq(data):
    return ComplexSeq(np.asarray(data, dtype=complex))


def test_estimate_linear_gain_exact():
    x = _seq(RNG.normal(size=50) + 1j * RNG.normal(size=50))
    y = x.with_data((2.0 + 1.0j) * x.data)
    assert estimate_linear_gain(x, y) == pytest.approx(abs(2.0 + 1.0j), rel=1e-12)
    assert estimate_linear_gain(x, x.with_data(3.0 * x.data)) == pytest.approx(3.0)


def test_estimate_linear_gain_is_least_squares():
    x = _seq(RNG.normal(size=200) + 1j * RNG.normal(size=200))
    noise = 0.1 * (RNG.normal(size=200) + 1j * RNG.normal(size=200))
    y = x.with_data(1.7 * x.data + noise)
    expect = abs(np.vdot(x.data, y.data) / np.vdot(x.data, x.data))
    assert estimate_linear_gain(x, y) == pytest.approx(expect, rel=1e-12)


def test_estimate_linear_gain_errors():
    x = _seq([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        estimate_linear_gain(x, _seq([1.0, 2.0]))
    with pytest.raises(ValueError):
        estimate_linear_gain(_seq([0.0, 0.0, 0.0]).with_data(np.zeros(3) + 0j), x)
    # output orthogonal to input has zero projection
    with pytest.raises(ValueError):
        estimate_linear_gain(_seq([1.0, 0.0]), _seq([0.0, 1.0]))


def test_dpd_result_properties():
    res = DpdResult(
        acpr_before_db=(-30.0, -31.0),
        acpr_after_db=(-44.0, -42.5),
        nmse_inverse_db=-50.0,
        gain_estimate=0.9,
        predistorted_peak=1.3,
    )
    assert res.improvement_db == pytest.approx((14.0, 11.5))
    assert res.peak_exceeded  # 1.3 > default ceiling 1.2
    assert not DpdResult((-30.0, -30.0), (-40.0, -40.0), -50.0, 0.9, 1.1).peak_exceeded
    d = res.to_dict()
    assert d["improvement_db"] == pytest.approx([14.0, 11.5])
    assert d["peak_exceeded"] is True
    assert d["peak_ceiling"] == 1.2
    with pytest.raises(ValueError):
        DpdResult((-30.0, -30.0), (-40.0, -40.0), -50.0, 0.0, 1.0)


def test_apply_dpd_matches_manual_forward():
    arch = ConvNetArch()
    params = init_params(arch, 3)
    x = _seq(0.5 * (RNG.normal(size=40) + 1j * RNG.normal(size=40)))
    scale = 1.7
    out = apply_dpd(params, arch, x, scale)

    m = arch.memory_depth
    z = x.scaled(scale)
    graphs = feature_graphs(z, m, len(x) - m, m)
    pred = forward_batch(params, arch, graphs)
    expect = (pred[:, 0] + 1j * pred[:, 1]) / scale
    assert np.array_equal(out.data[:m], x.data[:m])  # warm-up passes through
    np.testing.assert_allclose(out.data[m:], expect, rtol=1e-12)
    assert out.sample_rate_hz == x.sample_rate_hz
    assert len(out) == len(x)


# (memory depth, kernel cols, drive length); the paper's arch keeps the bare length as its id
_APPLY_SHAPES = [(3, 3, n) for n in (4, 5, 11, 12, 13, 25, 40)] + [
    (m, s, n) for m in range(5) for s in range(1, m + 2) for n in (m + 1, m + 2, m + 8, 40)]


@pytest.mark.parametrize("m, s, n", _APPLY_SHAPES,
                         ids=[str(n) if i < 7 else f"M{m}-s{s}-{n}" for i, (m, s, n) in enumerate(_APPLY_SHAPES)])
def test_apply_dpd_blocks_keep_whole_drive_bytes(monkeypatch, m, s, n):
    """Streamed in blocks of at most 7 graphs, the conv layer once per sample,
    the output has the bytes of one whole-drive forward, on lengths that
    straddle the block edges, at memory depths 0-4 with every kernel width,
    so C runs 1..M+1. Kernels of 15 or more taps (here 3x5) are not among the
    shapes whose rows keep their bytes at any batch size (README), so there
    it agrees to 1e-12 relative."""
    arch = ConvNetArch(memory_depth=m, kernel_cols=s)
    params = init_params(arch, 5)
    x = _seq(0.5 * (RNG.normal(size=n) + 1j * RNG.normal(size=n)))
    pred = forward_batch(params, arch, feature_graphs(x.scaled(1.7), m, n - m, m))
    whole = np.concatenate([x.data[:m], (pred[:, 0] + 1j * pred[:, 1]) / 1.7])
    monkeypatch.setattr(network, "_BLOCK_SAMPLES", 7)
    got = apply_dpd(params, arch, x, 1.7).data
    if arch.kernel_rows * arch.kernel_cols < 15:
        assert got.tobytes() == whole.tobytes()
    else:
        np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0)


def test_apply_dpd_memory_does_not_grow_with_drive_length():
    """Net of its output, `apply_dpd` holds one block's buffers at a time: the
    same tracemalloc peak for a 2-block drive as for an 8-block one."""
    arch = ConvNetArch()
    params = init_params(arch, 0)
    net_peaks = []
    for n_blocks in (2, 8):
        n = n_blocks * network._BLOCK_SAMPLES
        x = _seq(0.5 * (RNG.normal(size=n) + 1j * RNG.normal(size=n)))
        tracemalloc.start()
        try:
            apply_dpd(params, arch, x, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        net_peaks.append(peak - x.data.nbytes)  # the output
    block_graphs = network._BLOCK_SAMPLES * 5 * (arch.memory_depth + 1) * 8
    assert net_peaks[1] <= net_peaks[0] + block_graphs // 10, net_peaks


def test_apply_dpd_zero_params_zero_output():
    arch = ConvNetArch()
    params = ConvNetParams.from_list(
        [np.zeros_like(a) for a in init_params(arch, 0).as_list()]
    )
    x = _seq(RNG.normal(size=20) + 1j * RNG.normal(size=20))
    out = apply_dpd(params, arch, x, 1.0)
    assert np.array_equal(out.data[: arch.memory_depth], x.data[: arch.memory_depth])
    assert np.all(out.data[arch.memory_depth:] == 0)


def test_apply_dpd_validation():
    arch = ConvNetArch()
    params = init_params(arch, 0)
    x = _seq(RNG.normal(size=10) + 1j * RNG.normal(size=10))
    with pytest.raises(ValueError):
        apply_dpd(params, arch, x, 0.0)
    with pytest.raises(ValueError):
        apply_dpd(params, arch, _seq([1.0, 1.0, 1.0]), 1.0)  # len == memory_depth


def _dpd_capture(n_symbols=4):
    """A small drive at 3 dB backoff and the default PA's output for it."""
    pa = default_pa(0)
    drive = generate_ofdm(OfdmConfig(n_symbols=n_symbols, seed=2)).scaled(10 ** (-3.0 / 20.0))
    return pa, drive, transmit_chain(pa, drive)


def test_train_and_evaluate_round_trip():
    pa, drive, output = _dpd_capture()
    cfg = ExperimentConfig(signal=OfdmConfig(n_symbols=4, seed=2), adam=AdamConfig(max_iters=800),
                           lm=LmConfig(max_iters=30), dataset_count=600, segment=256)
    arch = cfg.arch
    params, gain, scale, nmse_inverse_db = train_dpd(cfg, drive, output)
    # short run: not linearization-grade, but clearly better than no model
    assert nmse_inverse_db < -25.0
    assert gain > 0
    assert scale > 0

    plan = ChannelPlan.for_bandwidth(cfg.signal.occupied_bandwidth_hz)
    result, spectra = evaluate_linearization(
        pa, drive, output, params, arch, scale, plan, gain, nmse_inverse_db, segment=256,
    )
    assert result.nmse_inverse_db == pytest.approx(nmse_inverse_db)
    assert all(np.isfinite(v) for v in result.acpr_before_db + result.acpr_after_db)
    assert 0 < result.predistorted_peak < 1.2
    assert len(spectra["freqs_hz"]) == len(spectra["psd_before"]) == len(spectra["psd_after"])
    assert len(spectra["predistorted"]) == len(drive)
    # the bare-PA output in the spectra dict matches a direct PA run
    np.testing.assert_allclose(
        spectra["output_before"].data, pa_forward(pa, drive).data, rtol=1e-12
    )


def test_dpd_stage1_never_sees_the_held_out_split(monkeypatch):
    """The held-out split is scored once, after LM: stage 1 gets no test set."""
    _, drive, output = _dpd_capture(n_symbols=2)
    seen = []
    stage1 = experiment.train_stage1_adam

    def recording_stage1(params, arch, train, cfg, test=None):
        seen.append(test)
        return stage1(params, arch, train, cfg, test)

    monkeypatch.setattr(experiment, "train_stage1_adam", recording_stage1)
    cfg = ExperimentConfig(adam=AdamConfig(max_iters=5), lm=LmConfig(max_iters=2),
                           dataset_count=300, segment=256)
    train_dpd(cfg, drive, output)
    assert seen == [None]


def test_train_dpd_linear_pa_gain():
    # a purely linear PA: the estimated gain must match |a0| closely
    pa = PolyPaModel(np.array([0.8 - 0.2j]), np.zeros((0, 0)))
    cfg = OfdmConfig(n_symbols=2, seed=2)
    drive = generate_ofdm(cfg)
    y = transmit_chain(pa, drive)
    assert estimate_linear_gain(drive, y) == pytest.approx(abs(0.8 - 0.2j), rel=1e-9)
