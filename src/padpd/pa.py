"""Synthetic power amplifier: memory polynomial model plus front-end impairments.

The PA applies static AM/AM-AM/PM terms a_k * x(n) * |x(n)|^k and memory
cross terms c_kq * x(n) * |x(n-q)|^k with zero-padded history. Impairments
(IQ modulator imbalance, DC offset) act on the drive before the PA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import ComplexSeq, _chunks

__all__ = [
    "PolyPaModel",
    "ImpairmentConfig",
    "pa_forward",
    "steady_state_gain",
    "gain_compression_db",
    "default_pa",
    "apply_impairments",
    "transmit_chain",
]


class ConstructionError(RuntimeError):
    """Raised when a synthetic PA cannot be built to its target behavior."""


@dataclass(frozen=True)
class PolyPaModel:
    """Memory polynomial PA.

    a: (K,) complex static coefficients, a[k] weighting x(n)|x(n)|^k.
    c: (K-1, Q-1) complex cross coefficients, c[k-1, q-1] weighting
       x(n)|x(n-q)|^k for k = 1..K-1, q = 1..Q-1. Either dimension may be 0.
    """

    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=np.complex128))
        c = np.asarray(self.c, dtype=np.complex128)
        if c.size == 0:
            c = c.reshape(max(a.size - 1, 0), 0)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("a must be a non-empty 1-D coefficient vector")
        if a[0] == 0:
            raise ValueError("linear term a[0] must be nonzero")
        if c.ndim != 2 or c.shape[0] != a.size - 1:
            raise ValueError(
                f"c must have shape (K-1, Q-1) = ({a.size - 1}, *), got {c.shape}"
            )
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise ValueError("PA coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def k_order(self) -> int:
        return self.a.size

    @property
    def q_depth(self) -> int:
        return self.c.shape[1] + 1


def _horner(coeffs: np.ndarray, env: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of sum_k coeffs[k] * env**k, by Horner's rule."""
    re = np.full(env.size, coeffs[-1].real)
    im = np.full(env.size, coeffs[-1].imag)
    for c in coeffs[-2::-1]:
        re *= env
        re += c.real
        im *= env
        im += c.imag
    return re, im


def pa_forward(model: PolyPaModel, x: ComplexSeq) -> ComplexSeq:
    """Run the memory polynomial over a sequence (zero-padded history).

    The complex gain g(n) = sum_k a_k |x(n)|^k + sum_q sum_k c_kq |x(n-q)|^k is
    built on the real envelope, one Horner polynomial for the static terms and
    one per delay q, and applied once: y = x * g. It goes in chunks of
    `signals._CHUNK` samples, each with the q_depth - 1 envelope samples before it,
    so the temporaries are one chunk's, whatever the length.
    """
    v = x.data
    y = np.empty_like(v)
    cross = [np.append(0.0, model.c[:, q - 1]) for q in range(1, model.q_depth)]
    for c in _chunks(v.size):
        lo = max(c.start - (model.q_depth - 1), 0)
        env = np.abs(v[lo : c.stop])  # the chunk's envelope after its history's
        g_re, g_im = _horner(model.a, env[c.start - lo :])
        for q, coeffs in enumerate(cross, start=1):
            first = max(c.start, q)  # |x(n-q)| for n >= q; the zero history adds nothing
            if first < c.stop:
                re, im = _horner(coeffs, env[first - q - lo : c.stop - q - lo])
                g_re[first - c.start :] += re
                g_im[first - c.start :] += im
        out = y[c]
        out.real, out.imag = g_re, g_im
        out *= v[c]
    return x.with_data(y)


def steady_state_gain(model: PolyPaModel, amplitude: float) -> float:
    """|y|/|x| for a settled constant-envelope drive at the given amplitude."""
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    n = model.q_depth + 8
    drive = ComplexSeq(np.full(n, amplitude, dtype=np.complex128))
    y = pa_forward(model, drive)
    return float(np.abs(y.data[-1]) / amplitude)


def gain_compression_db(model: PolyPaModel) -> float:
    """Small-signal gain minus settled gain at |x| = 1, in dB."""
    small = abs(model.a[0])
    return 20.0 * math.log10(small) - 20.0 * math.log10(steady_state_gain(model, 1.0))


def default_pa(seed: int = 0, k_order: int = 5, q_depth: int = 4) -> PolyPaModel:
    """Seeded synthetic PA with 3.0 dB gain compression at |x| = 1.

    The static nonlinear terms ride on a compressive (mostly cubic) backbone
    and are rescaled until the compression target is met; cross-term
    magnitudes stay below 10% of |a0|.
    """
    if k_order < 2:
        raise ConstructionError("k_order must be >= 2 to realize gain compression")
    if q_depth < 1:
        raise ValueError("q_depth must be >= 1")
    rng = np.random.default_rng(seed)

    def cnormal(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

    a = np.zeros(k_order, dtype=np.complex128)
    a[0] = 1.0
    shape = 0.02 * cnormal(k_order)
    shape[0] = 0.0
    if k_order > 2:
        shape[2] += -0.28 + 0.06j
    if k_order > 4:
        shape[4] += -0.03 - 0.01j
    if k_order == 2:
        shape[1] += -0.25 + 0.05j

    c = 0.07 * cnormal(k_order - 1, q_depth - 1)
    mags = np.abs(c)
    over = mags > 0.1
    c[over] *= 0.1 / mags[over]

    def model_for(t: float) -> PolyPaModel:
        at = a.copy()
        at[1:] = t * shape[1:]
        return PolyPaModel(at, c)

    target = 3.0
    t_lo, t_hi = 0.0, None
    for t in np.arange(0.25, 6.01, 0.25):
        if gain_compression_db(model_for(t)) >= target:
            t_hi = float(t)
            break
        t_lo = float(t)
    if t_hi is None:
        raise ConstructionError("could not bracket the compression target")
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        comp = gain_compression_db(model_for(mid))
        if abs(comp - target) < 0.005:
            return model_for(mid)
        if comp < target:
            t_lo = mid
        else:
            t_hi = mid
    model = model_for(0.5 * (t_lo + t_hi))
    if abs(gain_compression_db(model) - target) > 0.1:
        raise ConstructionError("compression calibration did not converge")
    return model


@dataclass(frozen=True)
class ImpairmentConfig:
    """Transmitter front-end impairments applied to the drive before the PA;
    each applies when one of its values is non-zero."""

    iq_gain_imbalance_db: float = 0.0
    iq_phase_imbalance_deg: float = 0.0
    dc_offset_i_frac: float = 0.0
    dc_offset_q_frac: float = 0.0

    def __post_init__(self):
        if abs(self.iq_gain_imbalance_db) > 3.0:
            raise ValueError("gain imbalance limited to +-3 dB")
        if abs(self.iq_phase_imbalance_deg) > 10.0:
            raise ValueError("phase imbalance limited to +-10 degrees")
        for frac in (self.dc_offset_i_frac, self.dc_offset_q_frac):
            if not 0.0 <= frac <= 0.2:
                raise ValueError("dc offset fractions must lie in [0, 0.2]")

    @classmethod
    def case(cls, number: int) -> "ImpairmentConfig":
        """Case 1: PA only. Case 2: 1 dB gain and 3 degree phase imbalance.
        Case 3: case 2 plus DC offsets of 3% (I) and 5% (Q) of the rms level."""
        if number not in (1, 2, 3):
            raise ValueError(f"impairment case must be 1, 2 or 3, got {number}")
        iq = {"iq_gain_imbalance_db": 1.0, "iq_phase_imbalance_deg": 3.0} if number > 1 else {}
        dc = {"dc_offset_i_frac": 0.03, "dc_offset_q_frac": 0.05} if number > 2 else {}
        return cls(**iq, **dc)


def iq_imbalance_coefficients(cfg: ImpairmentConfig) -> tuple[complex, complex]:
    """Direct and image coefficients (mu, nu) of the IQ imbalance map."""
    g = 10.0 ** (cfg.iq_gain_imbalance_db / 20.0)
    ge = g * np.exp(1j * math.radians(cfg.iq_phase_imbalance_deg))
    return (1.0 + ge) / 2.0, (1.0 - ge) / 2.0


def apply_impairments(x: ComplexSeq, cfg: ImpairmentConfig) -> ComplexSeq:
    """x' = mu*x + nu*conj(x) (+ DC offset scaled by the input rms), the
    imbalance one chunk at a time and the offset in place."""
    v = x.data
    if cfg.iq_gain_imbalance_db or cfg.iq_phase_imbalance_deg:
        mu, nu = iq_imbalance_coefficients(cfg)
        out = np.empty_like(v)
        for c in _chunks(v.size):
            np.add(mu * v[c], nu * np.conj(v[c]), out=out[c])
        v = out
    if cfg.dc_offset_i_frac or cfg.dc_offset_q_frac:
        offset = (cfg.dc_offset_i_frac + 1j * cfg.dc_offset_q_frac) * x.rms()
        v = v + offset if v is x.data else np.add(v, offset, out=v)
    return x.with_data(v)


def transmit_chain(
    model: PolyPaModel, x: ComplexSeq, impairments: ImpairmentConfig | None = None
) -> ComplexSeq:
    """Impairments (if any) followed by the PA."""
    if impairments is not None:
        x = apply_impairments(x, impairments)
    return pa_forward(model, x)
