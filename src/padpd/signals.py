"""Complex baseband test signals: OFDM generation and PAPR.

The OFDM source places QAM symbols on subcarriers around DC, concatenates
the inverse-FFT symbol blocks, and bandlimits the whole sequence with a
raised-cosine frequency response. Filtering the full sequence (rather than
each block) also removes the wideband clicks at block boundaries, so the
generated signal's adjacent-channel leakage sits at the measurement floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import write_csv

__all__ = [
    "ComplexSeq",
    "OfdmConfig",
    "generate_ofdm",
    "ofdm_symbol_grid",
    "subcarrier_indices",
    "raised_cosine_gain",
    "papr_db",
    "write_signal_csv",
]


@dataclass(frozen=True)
class ComplexSeq:
    """Finite sequence of complex baseband samples plus its sample rate."""

    data: np.ndarray
    sample_rate_hz: float = 1.0

    def __post_init__(self):
        data = np.atleast_1d(np.asarray(self.data, dtype=np.complex128))
        if data.ndim != 1 or data.size == 0:
            raise ValueError("signal must be a non-empty 1-D sample sequence")
        if not np.isfinite(data).all():
            raise ValueError("signal contains non-finite samples")
        rate = float(self.sample_rate_hz)
        if not rate > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {rate}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.data.size

    def power(self) -> float:
        """Mean of |x(n)|^2."""
        return float(np.mean(np.abs(self.data) ** 2))

    def rms(self) -> float:
        return math.sqrt(self.power())

    def peak(self) -> float:
        return _peak(self.data)

    def scaled(self, factor: complex) -> "ComplexSeq":
        return ComplexSeq(self.data * factor, self.sample_rate_hz)

    def with_data(self, data: np.ndarray) -> "ComplexSeq":
        return ComplexSeq(data, self.sample_rate_hz)


# samples per chunk of a pass over a long sequence: a chunk's float temporaries
# (256 KB each) stay in L2, where whole-drive ones (5 MB at 640 000 samples)
# would each be a fresh allocation read back from memory
_CHUNK = 32768


def _even_slices(n: int, most: int) -> list[slice]:
    """``range(n)`` cut into the fewest consecutive slices of at most ``most``
    samples, of lengths that differ by at most one."""
    k = max(1, -(-n // most))
    bounds = [i * n // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _chunks(n: int) -> list[slice]:
    """``range(n)`` in `_even_slices` of at most `_CHUNK` samples. So no slice
    holds a lone sample unless n is 1: numpy multiplies a one-element complex
    array in place by another path than its vector loop, which can round
    differently."""
    return _even_slices(n, _CHUNK)


def _peak(v: np.ndarray, factor: float | None = None) -> float:
    """max |v|, or max |v * factor|, one chunk's magnitudes at a time."""
    return max(float(np.max(np.abs(v[c] if factor is None else v[c] * factor))) for c in _chunks(v.size))


def _is_power_of_four(n: int) -> bool:
    if n < 4:
        return False
    while n % 4 == 0:
        n //= 4
    return n == 1


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM source configuration.

    ``n_subcarriers`` QAM-loaded bins sit around DC inside an FFT grid of
    ``n_subcarriers * oversampling`` bins, so the occupied bandwidth is
    ``sample_rate_hz / oversampling``.
    """

    n_subcarriers: int = 64
    qam_order: int = 16
    n_symbols: int = 2000
    oversampling: int = 5
    rolloff: float = 0.1
    seed: int = 2
    sample_rate_hz: float = 625e6

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        if not _is_power_of_four(self.qam_order):
            raise ValueError(
                f"qam_order must be a square power of 4 (4, 16, 64, ...), got {self.qam_order}"
            )
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError(f"rolloff must lie in [0, 1], got {self.rolloff}")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def n_fft(self) -> int:
        return self.n_subcarriers * self.oversampling

    @property
    def occupied_bandwidth_hz(self) -> float:
        return self.sample_rate_hz / self.oversampling


def subcarrier_indices(n_subcarriers: int) -> np.ndarray:
    """Signed bin indices of the active subcarriers, symmetric around DC.

    Even counts occupy +-1..+-S/2 with DC left empty; odd counts occupy DC
    plus +-1..+-(S-1)/2.
    """
    s = int(n_subcarriers)
    if s < 1:
        raise ValueError("n_subcarriers must be >= 1")
    if s % 2 == 0:
        return np.concatenate([np.arange(-s // 2, 0), np.arange(1, s // 2 + 1)])
    half = (s - 1) // 2
    return np.arange(-half, half + 1)


def raised_cosine_gain(nu, beta: float):
    """Raised-cosine magnitude response.

    ``nu`` is frequency normalized to the band edge: unity gain for
    |nu| <= 1-beta, cosine taper to zero across (1-beta, 1+beta].
    """
    nu = np.abs(np.asarray(nu, dtype=float))
    if not 0.0 <= beta <= 1.0:
        raise ValueError("rolloff must lie in [0, 1]")
    if beta == 0.0:
        return (nu <= 1.0).astype(float)
    gain = np.zeros_like(nu)
    gain[nu <= 1.0 - beta] = 1.0
    taper = (nu > 1.0 - beta) & (nu <= 1.0 + beta)
    gain[taper] = 0.5 * (1.0 + np.cos(np.pi * (nu[taper] - (1.0 - beta)) / (2.0 * beta)))
    return gain


def _qam_symbols(order: int, count: int, rng: np.random.Generator) -> np.ndarray:
    m = int(round(math.sqrt(order)))
    levels = np.arange(-(m - 1), m, 2, dtype=float)
    scale = math.sqrt(2.0 * (order - 1) / 3.0)  # unit mean symbol power
    re = levels[rng.integers(0, m, size=count)]
    im = levels[rng.integers(0, m, size=count)]
    return (re + 1j * im) / scale


def ofdm_symbol_grid(cfg: OfdmConfig) -> np.ndarray:
    """Per-symbol FFT grid of QAM values, before pulse shaping.

    Returns an (n_symbols, n_fft) complex array; inactive bins are zero.
    """
    rng = np.random.default_rng(cfg.seed)
    idx = subcarrier_indices(cfg.n_subcarriers)
    bins = idx % cfg.n_fft
    syms = _qam_symbols(cfg.qam_order, cfg.n_symbols * cfg.n_subcarriers, rng)
    grid = np.zeros((cfg.n_symbols, cfg.n_fft), dtype=np.complex128)
    grid[:, bins] = syms.reshape(cfg.n_symbols, cfg.n_subcarriers)
    return grid


def _shape_spectrum(spec: np.ndarray, sample_rate_hz: float, cfg: OfdmConfig) -> np.ndarray:
    """Multiply the raised-cosine gains into an FFT in place, one chunk of bins
    at a time; the bin frequencies are `np.fft.fftfreq`'s, computed as it does.

    The cosine taper is squeezed inside the occupied band (sample_rate /
    oversampling wide) and reaches zero exactly at the band edge, so the
    shaped signal leaks nothing into the adjacent channels.
    """
    n = spec.size
    step = 1.0 / (n * (1.0 / sample_rate_hz))  # fftfreq's bin spacing
    edge_hz = cfg.occupied_bandwidth_hz / 2.0
    for c in _chunks(n):
        k = np.arange(c.start, c.stop)
        k[k >= (n + 1) // 2] -= n  # the negative frequencies
        nu = k * step * (1.0 + cfg.rolloff) / edge_hz
        spec[c] *= raised_cosine_gain(nu, cfg.rolloff)
    return spec


def generate_ofdm(cfg: OfdmConfig) -> ComplexSeq:
    """Seeded OFDM burst, raised-cosine shaped, peak-normalized to 1.0.

    Each row of `ofdm_symbol_grid` goes through a unitary IFFT, which keeps
    the grid's mean power, and the rows are concatenated in time. The whole
    sequence's spectrum then takes the gains of `_shape_spectrum`, and the
    result is divided by its peak. At most two full-length arrays are alive:
    each transform's input is dropped once its output exists, the gains go
    into the spectrum chunk by chunk and the peak division is in place.
    """
    spec = np.fft.fft(np.fft.ifft(ofdm_symbol_grid(cfg), axis=1, norm="ortho").reshape(-1))
    x = np.fft.ifft(_shape_spectrum(spec, cfg.sample_rate_hz, cfg))
    del spec
    peak = _peak(x)
    if peak == 0.0:
        raise ValueError("cannot peak-normalize an all-zero signal")
    x *= 1.0 / peak
    return ComplexSeq(x, cfg.sample_rate_hz)


def papr_db(x: ComplexSeq) -> float:
    """Peak-to-average power ratio, 10*log10(max|x|^2 / mean|x|^2)."""
    p = np.abs(x.data) ** 2
    mean = p.mean()
    if mean == 0.0:
        raise ValueError("PAPR is undefined for an all-zero signal")
    return float(10.0 * np.log10(p.max() / mean))


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_signal_csv(x: ComplexSeq, path, comment: str | None = None) -> None:
    """Write ``n,i,q`` rows plus a sidecar JSON with the sample rate."""
    path = Path(path)
    write_csv(path, ["n", "i", "q"], [np.arange(len(x)), x.data.real, x.data.imag], comment)
    meta = {"n_samples": len(x), "sample_rate_hz": x.sample_rate_hz}
    _meta_path(path).write_text(json.dumps(meta, sort_keys=True) + "\n")
