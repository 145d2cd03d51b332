"""Tests for the synthetic memory-polynomial PA and front-end impairments."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padpd import signals
from padpd.pa import (
    ConstructionError,
    ImpairmentConfig,
    PolyPaModel,
    _horner,
    apply_impairments,
    default_pa,
    gain_compression_db,
    iq_imbalance_coefficients,
    pa_forward,
    steady_state_gain,
    transmit_chain,
)
from padpd.signals import ComplexSeq


def reference_forward(a, c, x):
    """Direct per-sample evaluation of the memory polynomial."""
    k_order = len(a)
    q_depth = c.shape[1] + 1 if c.size else 1
    y = np.zeros(len(x), dtype=complex)
    for n in range(len(x)):
        for k in range(k_order):
            y[n] += a[k] * x[n] * abs(x[n]) ** k
        for k in range(1, k_order):
            for q in range(1, q_depth):
                past = x[n - q] if n - q >= 0 else 0.0
                y[n] += c[k - 1, q - 1] * x[n] * abs(past) ** k
    return y


def test_model_validation():
    with pytest.raises(ValueError):
        PolyPaModel(np.array([0.0]), np.zeros((0, 0)))  # zero linear gain
    with pytest.raises(ValueError):
        PolyPaModel(np.array([1.0, 0.1]), np.zeros((3, 2)))  # row count mismatch
    with pytest.raises(ValueError):
        PolyPaModel(np.array([1.0, np.inf]), np.zeros((1, 0)))
    m = PolyPaModel(np.array([1.0, -0.2 + 0.1j]), np.full((1, 2), 0.05j))
    assert m.k_order == 2
    assert m.q_depth == 3


def test_forward_matches_reference():
    rng = np.random.default_rng(42)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a[0] = 1.0
    c = 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    model = PolyPaModel(a, c)
    x = 0.5 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    y = pa_forward(model, ComplexSeq(x))
    assert np.allclose(y.data, reference_forward(a, c, x), rtol=1e-12)


@settings(max_examples=150, deadline=None)
@given(k_order=st.integers(1, 7), q_depth=st.integers(1, 5), n=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(k_order=5, q_depth=5, n=2, seed=0)  # shorter than the memory depth
@example(k_order=1, q_depth=5, n=1, seed=1)  # linear: no memory terms
def test_forward_matches_reference_property(k_order, q_depth, n, seed):
    """Horner evaluation against the per-sample sum of terms, at rtol 1e-12.

    The absolute floor is 1e-12 of the same sum over |coefficients| and |x|,
    which bounds every term, for samples whose terms cancel to about zero.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(k_order) + 1j * rng.standard_normal(k_order)
    a[0] = 1.0 + 0.5j
    c = rng.standard_normal((k_order - 1, q_depth - 1)) + 1j * rng.standard_normal(
        (k_order - 1, q_depth - 1)
    )
    x = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    got = pa_forward(PolyPaModel(a, c), ComplexSeq(x)).data
    ref = reference_forward(a, c, x)
    bound = reference_forward(np.abs(a), np.abs(c), np.abs(x)).real
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-12 * bound)


def unchunked_forward(model, x):
    """`pa_forward`'s operations over the whole sequence at once: the
    envelope, one Horner polynomial for the static terms and one per delay,
    added in delay order, then one complex product."""
    v = x.data
    env = np.abs(v)
    g_re, g_im = _horner(model.a, env)
    for q in range(1, model.q_depth):
        re, im = _horner(np.append(0.0, model.c[:, q - 1]), env[:-q])
        g_re[q:] += re
        g_im[q:] += im
    y = np.empty_like(v)
    y.real, y.imag = g_re, g_im
    y *= v
    return y


@settings(max_examples=150, deadline=None)
@given(k_order=st.integers(1, 7), q_depth=st.integers(1, 9), n=st.integers(1, 60),
       chunk=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
@example(k_order=5, q_depth=9, n=4, chunk=3, seed=0)  # shorter than the memory depth
@example(k_order=5, q_depth=4, n=7, chunk=3, seed=1)  # chunks of 2, 2 and 3 samples
def test_chunked_forward_keeps_the_unchunked_bytes(k_order, q_depth, n, chunk, seed):
    """In chunks of a few samples, each with the history before it, the output
    has the bytes of one pass over the whole sequence."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(k_order) + 1j * rng.standard_normal(k_order)
    a[0] = 1.0 + 0.5j
    c = rng.standard_normal((k_order - 1, q_depth - 1)) + 1j * rng.standard_normal(
        (k_order - 1, q_depth - 1)
    )
    model = PolyPaModel(a, c)
    x = ComplexSeq(0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    with mock.patch.object(signals, "_CHUNK", chunk):
        got = pa_forward(model, x).data
    assert got.tobytes() == unchunked_forward(model, x).tobytes()


@pytest.mark.parametrize("cfg", [*(ImpairmentConfig.case(c) for c in (1, 2, 3)),
                                 ImpairmentConfig(dc_offset_q_frac=0.05)], ids=["1", "2", "3", "dc"])
@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_chunked_impairments_keep_the_unchunked_bytes(cfg, n):
    """The IQ imbalance in chunks of a few samples, and the DC offset added in
    place, give the bytes of the whole-sequence expression."""
    rng = np.random.default_rng(n)
    x = ComplexSeq(0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    want = x.data
    if cfg.iq_gain_imbalance_db:
        mu, nu = iq_imbalance_coefficients(cfg)
        want = mu * want + nu * np.conj(want)
    if cfg.dc_offset_q_frac:
        want = want + (cfg.dc_offset_i_frac + 1j * cfg.dc_offset_q_frac) * x.rms()
    with mock.patch.object(signals, "_CHUNK", 3):
        got = apply_impairments(x, cfg).data
    assert got.tobytes() == want.tobytes()


def test_forward_memory_on_long_drive():
    """The gain is built one chunk at a time: the tracemalloc peak on a
    640 000-sample drive is the output plus one chunk's temporaries (the
    envelope, the two gain parts and one delay's two parts, with one more for
    margin) and the output's finite check, a bool per sample."""
    rng = np.random.default_rng(5)
    x = ComplexSeq(0.5 * (rng.standard_normal(640_000) + 1j * rng.standard_normal(640_000)))
    model = default_pa(0)
    tracemalloc.start()
    try:
        pa_forward(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.data.nbytes + 6 * 8 * signals._CHUNK + len(x), peak


def test_forward_memoryless_and_linear_cases():
    lin = PolyPaModel(np.array([2.0 - 1.0j]), np.zeros((0, 0)))
    x = ComplexSeq(np.array([0.1, -0.4j, 0.3 + 0.2j]))
    assert np.allclose(pa_forward(lin, x).data, (2.0 - 1.0j) * x.data)

    # a pure third-order term: y = a2 * x * |x|^2
    cubic = PolyPaModel(np.array([1.0, 0.0, -0.3]), np.zeros((2, 0)))
    y = pa_forward(cubic, x)
    assert np.allclose(y.data, x.data - 0.3 * x.data * np.abs(x.data) ** 2)


def test_steady_state_gain_analytic():
    model = PolyPaModel(
        np.array([1.0, 0.0, -0.2]), np.array([[0.05], [0.0]], dtype=complex)
    )
    # constant envelope A: gain = |a0 + a2 A^2 + c11 A|
    for amp in (0.3, 1.0):
        expect = abs(1.0 - 0.2 * amp**2 + 0.05 * amp)
        assert steady_state_gain(model, amp) == pytest.approx(expect, rel=1e-9)
    with pytest.raises(ValueError):
        steady_state_gain(model, 0.0)


def test_gain_compression_formula():
    # compression = 20 log10 |a0| - 20 log10 gain(1.0)
    model = PolyPaModel(np.array([1.0, 0.0, -0.25]), np.zeros((2, 0)))
    expect = -20 * math.log10(abs(1.0 - 0.25))
    assert gain_compression_db(model) == pytest.approx(expect, rel=1e-9)


def test_default_pa_contract():
    for seed in range(6):
        pa = default_pa(seed)
        assert pa.k_order == 5
        assert pa.q_depth == 4
        assert abs(pa.a[0]) == 1.0
        assert 2.9 <= gain_compression_db(pa) <= 3.1
        assert np.abs(pa.c).max() <= 0.1 + 1e-12  # cross terms capped at 10% of a0
    # deterministic construction
    p1, p2 = default_pa(3), default_pa(3)
    assert np.array_equal(p1.a, p2.a)
    assert np.array_equal(p1.c, p2.c)
    with pytest.raises(ConstructionError):
        default_pa(0, k_order=1)


def test_default_pa_output_finite_at_soft_peak():
    pa = default_pa(0)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    x = 1.2 * x / np.max(np.abs(x))
    y = pa_forward(pa, ComplexSeq(x))
    assert np.isfinite(y.data).all()


def test_impairment_cases_table():
    assert ImpairmentConfig.case(1) == ImpairmentConfig()

    c2 = ImpairmentConfig.case(2)
    assert (c2.iq_gain_imbalance_db, c2.iq_phase_imbalance_deg) == (1.0, 3.0)
    assert (c2.dc_offset_i_frac, c2.dc_offset_q_frac) == (0.0, 0.0)

    c3 = ImpairmentConfig.case(3)
    assert (c3.iq_gain_imbalance_db, c3.iq_phase_imbalance_deg) == (1.0, 3.0)
    assert (c3.dc_offset_i_frac, c3.dc_offset_q_frac) == (0.03, 0.05)

    with pytest.raises(ValueError):
        ImpairmentConfig.case(4)
    with pytest.raises(ValueError):
        ImpairmentConfig(iq_gain_imbalance_db=5.0)
    with pytest.raises(ValueError):
        ImpairmentConfig(dc_offset_i_frac=0.5)


def test_iq_imbalance_map():
    cfg = ImpairmentConfig.case(2)
    mu, nu = iq_imbalance_coefficients(cfg)
    g = 10 ** (1.0 / 20)
    ge = g * np.exp(1j * math.radians(3.0))
    assert mu == pytest.approx((1 + ge) / 2, rel=1e-12)
    assert nu == pytest.approx((1 - ge) / 2, rel=1e-12)

    # image rejection ratio for 1 dB / 3 deg lands near -24 dB
    irr = 20 * np.log10(abs(nu) / abs(mu))
    assert irr == pytest.approx(-23.99, abs=0.05)

    x = ComplexSeq(np.array([0.2 + 0.1j, -0.3j, 0.15]))
    out = apply_impairments(x, cfg)
    assert np.allclose(out.data, mu * x.data + nu * np.conj(x.data), rtol=1e-12)

    # either non-zero value alone applies the map
    for one in (ImpairmentConfig(iq_gain_imbalance_db=1.0), ImpairmentConfig(iq_phase_imbalance_deg=3.0)):
        mu, nu = iq_imbalance_coefficients(one)
        assert nu != 0
        assert np.allclose(apply_impairments(x, one).data, mu * x.data + nu * np.conj(x.data), rtol=1e-12)


def test_dc_offset_scales_with_rms():
    cfg = ImpairmentConfig(dc_offset_i_frac=0.03, dc_offset_q_frac=0.05)
    rng = np.random.default_rng(5)
    x = ComplexSeq(0.1 * (rng.standard_normal(200) + 1j * rng.standard_normal(200)))
    out = apply_impairments(x, cfg)
    shift = out.data - x.data
    assert np.allclose(shift, (0.03 + 0.05j) * x.rms(), rtol=1e-12)

    # identity when every value is zero
    clean = apply_impairments(x, ImpairmentConfig.case(1))
    assert np.array_equal(clean.data, x.data)
    # one non-zero fraction is enough to apply the offset
    q_only = apply_impairments(x, ImpairmentConfig(dc_offset_q_frac=0.05))
    assert np.allclose(q_only.data - x.data, 0.05j * x.rms(), rtol=1e-12)


def test_transmit_chain_composition():
    pa = default_pa(1)
    rng = np.random.default_rng(2)
    x = ComplexSeq(0.4 * (rng.standard_normal(100) + 1j * rng.standard_normal(100)))
    cfg = ImpairmentConfig.case(3)
    direct = pa_forward(pa, apply_impairments(x, cfg))
    assert np.array_equal(transmit_chain(pa, x, cfg).data, direct.data)
    assert np.array_equal(transmit_chain(pa, x).data, pa_forward(pa, x).data)
