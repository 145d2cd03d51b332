"""Tests for NMSE, Welch PSD, and ACPR integration."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from padpd.metrics import (
    NMSE_FLOOR_DB,
    _hann,
    acpr_db,
    band_power,
    nmse_db,
    psd_welch,
    write_spectrum_csv,
)
from padpd.signals import ComplexSeq


def test_nmse_reference_values():
    ref = np.array([1.0, 1.0j, -1.0, -1.0j])
    assert nmse_db(ref, ref) == NMSE_FLOOR_DB
    # error energy exactly 1% of reference energy -> -20 dB
    pred = ref + np.array([0.1, 0.1, 0.1, 0.1])
    expect = 10 * np.log10(4 * 0.01 / 4)
    assert nmse_db(pred, ref) == pytest.approx(expect, rel=1e-12)
    # scale-of-two error: 10 log10(1) = 0 dB
    assert nmse_db(2 * ref, ref) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        nmse_db(ref[:3], ref)
    with pytest.raises(ValueError):
        nmse_db(ref, np.zeros(4))


def test_welch_parseval_and_tone_location():
    rng = np.random.default_rng(0)
    fs = 100e6
    n = 65536
    x = ComplexSeq(rng.standard_normal(n) + 1j * rng.standard_normal(n), fs)
    freqs, psd = psd_welch(x, 1024)
    assert freqs.size == 1024
    assert freqs[0] == pytest.approx(-fs / 2)
    df = freqs[1] - freqs[0]
    total = float(np.sum(psd) * df)
    assert abs(total - x.power()) / x.power() < 0.01  # Parseval within 1%

    # single tone shows up in the right bin
    f0 = 12.5e6
    t = np.arange(n) / fs
    tone = ComplexSeq(np.exp(2j * np.pi * f0 * t), fs)
    freqs, psd = psd_welch(tone, 1024)
    assert freqs[np.argmax(psd)] == pytest.approx(f0, abs=df)

    with pytest.raises(ValueError):
        psd_welch(ComplexSeq(np.ones(10), fs), 1024)


@settings(max_examples=120, deadline=None)
@given(segment=st.integers(2, 1024), n_frames=st.integers(1, 300),
       extra=st.integers(0, 1023), complex_input=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(segment=4, n_frames=600, extra=1, complex_input=True, seed=0)  # 3 FFT chunks
@example(segment=1024, n_frames=3, extra=0, complex_input=False, seed=1)
@example(segment=5, n_frames=7, extra=2, complex_input=True, seed=2)  # an odd segment
def test_welch_matches_scipy(segment, n_frames, extra, complex_input, seed):
    """Same frames, window and scaling as scipy.signal.welch at its default
    half overlap, at rtol 1e-9 with an absolute floor of 1e-12 of the largest
    bin."""
    step = segment - segment // 2
    n = segment + (n_frames - 1) * step + extra % step  # not a whole number of steps
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_input else 0.0)
    fs = 3.5e6
    freqs, psd = psd_welch(ComplexSeq(data, fs), segment)
    ref_f, ref_p = sp_signal.welch(data, fs=fs, window="hann", nperseg=segment, detrend=False,
                                   return_onesided=False, scaling="density")
    np.testing.assert_allclose(freqs, np.fft.fftshift(ref_f), rtol=1e-15)
    np.testing.assert_allclose(psd, np.fft.fftshift(ref_p), rtol=1e-9, atol=1e-12 * ref_p.max())


def test_welch_window_is_scipys_hann():
    """The window psd_welch builds equals scipy's periodic Hann window byte
    for byte at every length it accepts up to 4096."""
    for m in range(2, 4097):
        assert np.array_equal(_hann(m), sp_signal.get_window("hann", m)), m


def test_band_power_on_flat_spectrum():
    freqs = np.linspace(-50.0, 50.0, 101)  # df = 1 Hz
    psd = np.full(101, 2.0)
    # 2 W/Hz over 20 Hz -> 40 W
    assert band_power(freqs, psd, -10.0, 10.0) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        band_power(freqs, psd, 10.0, 10.0)
    with pytest.raises(ValueError):
        band_power(freqs, psd, -10.0, 80.0)


def test_acpr_bands_abut_the_main_channel():
    """The adjacent channels are as wide as the main one and abut it: on a
    spectrum flat over each channel, ACPR reads the ratio of the levels."""
    freqs = np.arange(-200.0, 200.0)  # df = 1 Hz
    psd = np.select([freqs < -50, freqs < 50], [0.5, 1.0], 0.25)
    psd[(freqs < -150) | (freqs >= 150)] = 7.0  # outside every channel
    lo, hi = acpr_db(freqs, psd, 100.0)
    assert lo == pytest.approx(10 * np.log10(0.5), rel=1e-12)
    assert hi == pytest.approx(10 * np.log10(0.25), rel=1e-12)
    for bw in (0.0, -1.0):  # band edges out of order
        with pytest.raises(ValueError):
            acpr_db(freqs, psd, bw)


def test_acpr_of_shaped_noise():
    """Band-shaped noise reads back at the constructed adjacent/main ratio."""
    rng = np.random.default_rng(1)
    fs = 400.0
    n = 1 << 17
    # PSD 1 for |f| < 40 (a guard gap keeps window leakage out of the
    # adjacent bands), 0.01 everywhere else
    spec = np.fft.fftfreq(n, 1 / fs)
    gain = np.where(np.abs(spec) < 40.0, 1.0, 0.1)
    white = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = ComplexSeq(np.fft.ifft(np.fft.fft(white) * gain), fs)
    freqs, psd = psd_welch(x, 512)
    lo, hi = acpr_db(freqs, psd, 100.0)
    # main band holds 80 Hz of unit PSD + 20 Hz of floor; adjacent 100 Hz of floor
    expect = 10 * np.log10((0.01 * 100) / (80 + 0.01 * 20))
    assert lo == pytest.approx(expect, abs=0.3)
    assert hi == pytest.approx(expect, abs=0.3)


def test_write_spectrum_csv(tmp_path):
    freqs = np.array([-1.0, 0.0, 1.0])
    psd = np.array([0.5, 0.0, 2.0])  # zero hits the floor
    path = tmp_path / "spec.csv"
    write_spectrum_csv(freqs, psd, path, comment="hash=abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# hash=abc"
    assert lines[1] == "freq_hz,psd_db"
    rows = [line.split(",") for line in lines[2:]]
    assert float(rows[0][1]) == pytest.approx(10 * np.log10(0.5))
    assert float(rows[1][1]) == pytest.approx(-300.0)
    assert float(rows[2][1]) == pytest.approx(10 * np.log10(2.0))
