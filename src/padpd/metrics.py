"""Accuracy and spectral metrics: NMSE, Welch PSD and ACPR."""

from __future__ import annotations

import numpy as np

from .csvio import write_csv
from .signals import ComplexSeq

__all__ = [
    "nmse_db",
    "psd_welch",
    "band_power",
    "acpr_db",
    "write_spectrum_csv",
]

NMSE_FLOOR_DB = -300.0


def nmse_db(pred: np.ndarray, ref: np.ndarray) -> float:
    """10*log10(sum|pred-ref|^2 / sum|ref|^2), floored at -300 dB."""
    p = np.asarray(pred, dtype=np.complex128).reshape(-1)
    r = np.asarray(ref, dtype=np.complex128).reshape(-1)
    if p.shape != r.shape:
        raise ValueError(f"prediction and reference lengths differ: {p.size} vs {r.size}")
    ref_energy = float(np.sum(np.abs(r) ** 2))
    if ref_energy == 0.0:
        raise ValueError("NMSE is undefined for an all-zero reference")
    err_energy = float(np.sum(np.abs(p - r) ** 2))
    if err_energy == 0.0:
        return NMSE_FLOOR_DB
    return max(float(10.0 * np.log10(err_energy / ref_energy)), NMSE_FLOOR_DB)


def _hann(m: int) -> np.ndarray:
    """Periodic Hann window of length m, ``scipy.signal.get_window("hann", m)``.

    Built with scipy's own formula and in its order of operations (a
    cosine-sum window over m + 1 points, last point dropped), so the two
    agree byte for byte and importing scipy is not needed.
    """
    fac = np.linspace(-np.pi, np.pi, m + 1)
    w = np.zeros(m + 1)
    w += 0.5 * np.cos(0 * fac)
    w += 0.5 * np.cos(1 * fac)
    return w[:-1]


# Frames per FFT call: bounds the windowed copy and its spectrum (4 MB each at 1024 bins).
_WELCH_CHUNK_FRAMES = 256


def psd_welch(x: ComplexSeq, segment: int = 1024):
    """Two-sided Welch PSD (Hann window, density scaling), fftshifted.

    Frames, window and scaling are those of ``scipy.signal.welch(...,
    detrend=False, return_onesided=False)``, whose frames overlap by half:
    the mean |FFT|^2 of the windowed frames, scaled by 1 / (fs * sum(w^2)).

    Returns (freqs_hz, psd) with freqs ascending from -fs/2; integrating
    psd * df recovers the mean signal power (Parseval, within window bias).
    """
    if segment < 2:
        raise ValueError("segment must be >= 2")
    if len(x) < segment:
        raise ValueError(f"signal ({len(x)} samples) shorter than one segment ({segment})")
    step = segment - segment // 2
    frames = np.lib.stride_tricks.sliding_window_view(x.data, segment)[::step]
    window = _hann(segment)
    power = np.zeros(segment)
    for start in range(0, len(frames), _WELCH_CHUNK_FRAMES):
        spec = np.fft.fft(frames[start : start + _WELCH_CHUNK_FRAMES] * window, axis=1)
        power += (spec.real**2 + spec.imag**2).sum(axis=0)
    psd = power / (len(frames) * x.sample_rate_hz * np.dot(window, window))
    return np.fft.fftshift(np.fft.fftfreq(segment, 1.0 / x.sample_rate_hz)), np.fft.fftshift(psd)


def band_power(freqs: np.ndarray, psd: np.ndarray, lo_hz: float, hi_hz: float) -> float:
    """Integrated PSD over [lo, hi); band must sit inside the sampled span."""
    freqs = np.asarray(freqs)
    psd = np.asarray(psd)
    if lo_hz >= hi_hz:
        raise ValueError("band edges must satisfy lo < hi")
    df = freqs[1] - freqs[0]
    if lo_hz < freqs[0] - df / 2 or hi_hz > freqs[-1] + df / 2:
        raise ValueError(
            f"band [{lo_hz:g}, {hi_hz:g}) Hz falls outside the sampled span "
            f"[{freqs[0]:g}, {freqs[-1]:g}] Hz"
        )
    mask = (freqs >= lo_hz) & (freqs < hi_hz)
    if not mask.any():
        raise ValueError("band contains no PSD bins")
    return float(psd[mask].sum() * df)


def acpr_db(freqs: np.ndarray, psd: np.ndarray, bw_hz: float) -> tuple[float, float]:
    """Adjacent-to-main power ratio in dB, (lower side, upper side), of a main
    channel of ``bw_hz`` centred on 0 Hz and adjacent channels as wide that
    abut it."""
    main = band_power(freqs, psd, -bw_hz / 2, bw_hz / 2)
    if main <= 0.0:
        raise ValueError("main channel contains no power")
    lo = band_power(freqs, psd, -bw_hz - bw_hz / 2, -bw_hz + bw_hz / 2)
    hi = band_power(freqs, psd, bw_hz - bw_hz / 2, bw_hz + bw_hz / 2)
    return (float(10.0 * np.log10(lo / main)), float(10.0 * np.log10(hi / main)))


def write_spectrum_csv(freqs: np.ndarray, psd: np.ndarray, path, comment: str | None = None) -> None:
    """freq_hz,psd_db rows (psd floored at 1e-30 before the log)."""
    psd_db = 10.0 * np.log10(np.maximum(np.asarray(psd, dtype=float), 1e-30))
    write_csv(path, ["freq_hz", "psd_db"], [np.asarray(freqs, dtype=float), psd_db], comment)
