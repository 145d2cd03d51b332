"""Tests for OFDM generation, PAPR, and the signal container."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from padpd import signals
from padpd.signals import (
    ComplexSeq,
    OfdmConfig,
    generate_ofdm,
    ofdm_symbol_grid,
    papr_db,
    raised_cosine_gain,
    subcarrier_indices,
    write_signal_csv,
)


def test_complex_seq_validation():
    with pytest.raises(ValueError):
        ComplexSeq(np.array([]))
    with pytest.raises(ValueError):
        ComplexSeq(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ComplexSeq(np.ones(4), sample_rate_hz=0.0)
    x = ComplexSeq(np.array([3.0 + 4.0j, 0.0]))
    assert len(x) == 2
    assert x.peak() == 5.0
    assert x.power() == pytest.approx(12.5)
    assert x.rms() == pytest.approx(math.sqrt(12.5))


def test_subcarrier_indices_even_and_odd():
    assert subcarrier_indices(4).tolist() == [-2, -1, 1, 2]
    assert subcarrier_indices(5).tolist() == [-2, -1, 0, 1, 2]
    idx = subcarrier_indices(64)
    assert idx.size == 64
    assert 0 not in idx
    assert np.array_equal(idx, np.sort(idx))
    assert np.array_equal(-idx[::-1], idx)  # symmetric around DC


def test_ofdm_config_validation():
    with pytest.raises(ValueError):
        OfdmConfig(qam_order=8)  # not a square QAM
    with pytest.raises(ValueError):
        OfdmConfig(rolloff=1.5)
    cfg = OfdmConfig()
    assert cfg.n_fft == 64 * 5
    assert cfg.occupied_bandwidth_hz == pytest.approx(cfg.sample_rate_hz / 5)


def test_symbol_grid_constellation_and_power():
    cfg = OfdmConfig(n_symbols=200, seed=9)
    grid = ofdm_symbol_grid(cfg)
    assert grid.shape == (200, cfg.n_fft)

    active = subcarrier_indices(cfg.n_subcarriers) % cfg.n_fft
    inactive = np.setdiff1d(np.arange(cfg.n_fft), active)
    assert np.all(grid[:, inactive] == 0)

    # 16-QAM levels are odd integers over sqrt(2(M-1)/3), unit average power
    vals = grid[:, active].ravel()
    scale = math.sqrt(2 * 15 / 3)
    lattice = np.array([-3, -1, 1, 3]) / scale
    assert np.allclose(np.min(np.abs(vals.real[:, None] - lattice), axis=1), 0)
    assert np.allclose(np.min(np.abs(vals.imag[:, None] - lattice), axis=1), 0)
    assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=0.02)


def test_raised_cosine_gain_profile():
    beta = 0.25
    nu = np.array([0.0, 0.7, 0.75, 1.0, 1.25, 1.3])
    g = raised_cosine_gain(nu, beta)
    assert g[0] == 1.0
    assert g[1] == 1.0
    assert g[2] == 1.0  # edge of the flat region (nu = 1 - beta)
    assert g[3] == pytest.approx(0.5)  # midpoint of the taper
    assert g[4] == pytest.approx(0.0, abs=1e-15)
    assert g[5] == 0.0
    # symmetric in sign of nu, monotone across the taper
    assert np.array_equal(g, raised_cosine_gain(-nu, beta))
    fine = raised_cosine_gain(np.linspace(0, 2, 400), beta)
    assert np.all(np.diff(fine) <= 1e-12)
    # brick wall at zero rolloff
    assert raised_cosine_gain(np.array([0.999, 1.001]), 0.0).tolist() == [1.0, 0.0]


def modulate(grid):
    """Each symbol row through a unitary IFFT, the rows concatenated in time."""
    return np.fft.ifft(grid, axis=1, norm="ortho").reshape(-1)


def shaped(x, cfg):
    """A sequence filtered by `generate_ofdm`'s raised-cosine spectrum shaping."""
    return np.fft.ifft(signals._shape_spectrum(np.fft.fft(x), cfg.sample_rate_hz, cfg))


def test_filter_passes_inband_and_removes_outband():
    cfg = OfdmConfig(n_symbols=4, seed=5)
    n = 4 * cfg.n_fft
    t = np.arange(n) / cfg.sample_rate_hz
    delta_f = cfg.sample_rate_hz / cfg.n_fft

    inband = np.exp(2j * np.pi * (3 * delta_f) * t)
    assert np.allclose(shaped(inband, cfg), inband, atol=1e-9)

    outband = np.exp(2j * np.pi * (70 * delta_f) * t)
    assert np.max(np.abs(shaped(outband, cfg))) < 1e-9


def test_filter_energy_factor_matches_per_bin_gains():
    """Shaping only rescales energy by the per-bin squared gains."""
    cfg = OfdmConfig(n_symbols=300, seed=11)
    grid = ofdm_symbol_grid(cfg)
    x = modulate(grid)
    y = shaped(x, cfg)

    idx = subcarrier_indices(cfg.n_subcarriers)
    delta_f = cfg.sample_rate_hz / cfg.n_fft
    edge = cfg.occupied_bandwidth_hz / 2
    gains = raised_cosine_gain(idx * delta_f * (1 + cfg.rolloff) / edge, cfg.rolloff)
    bin_power = np.mean(np.abs(grid[:, idx % cfg.n_fft]) ** 2, axis=0)
    predicted = np.sum(bin_power * gains**2) / np.sum(bin_power)

    measured = np.mean(np.abs(y) ** 2) / np.mean(np.abs(x) ** 2)
    assert abs(10 * np.log10(measured / predicted)) < 0.1


def test_generate_ofdm_peak_papr_and_determinism():
    cfg = OfdmConfig()
    x = generate_ofdm(cfg)
    assert len(x) == cfg.n_symbols * cfg.n_fft
    assert x.peak() == pytest.approx(1.0, rel=1e-12)
    assert 9.4 <= papr_db(x) <= 11.4
    again = generate_ofdm(cfg)
    assert np.array_equal(x.data, again.data)


def unshaped_filter(x, cfg):
    """The raised-cosine shaping as one expression over the whole spectrum."""
    edge = cfg.occupied_bandwidth_hz / 2.0
    nu = np.fft.fftfreq(len(x), d=1.0 / x.sample_rate_hz) * (1.0 + cfg.rolloff) / edge
    return x.with_data(np.fft.ifft(np.fft.fft(x.data) * raised_cosine_gain(nu, cfg.rolloff)))


@pytest.mark.parametrize("cfg", [
    OfdmConfig(n_subcarriers=64, oversampling=5, n_symbols=37),  # 11 840 samples
    OfdmConfig(n_subcarriers=63, oversampling=4, n_symbols=37, seed=3),  # odd: DC occupied
    OfdmConfig(n_subcarriers=65, oversampling=5, n_symbols=21, rolloff=0.0),  # 6825, odd length
    OfdmConfig(n_subcarriers=32, oversampling=4, n_symbols=25, rolloff=1.0, qam_order=64),
    OfdmConfig(n_subcarriers=1, oversampling=4, n_symbols=1),  # 4 samples, one chunk
], ids=["even-5", "odd-4", "odd-5-rolloff0", "even-4-rolloff1", "tone"])
@pytest.mark.parametrize("chunk", [1000, signals._CHUNK])
def test_generate_ofdm_keeps_the_bytes_of_its_stages(cfg, chunk):
    """Built in place, its spectrum shaped chunk by chunk, the burst has the
    bytes of its stages done one after another: the row IFFTs, one
    whole-spectrum product and a division by the peak. At 1000 samples a
    chunk, no length here is a multiple of the chunk."""
    with mock.patch.object(signals, "_CHUNK", chunk):
        got = generate_ofdm(cfg)
    modulated = ComplexSeq(modulate(ofdm_symbol_grid(cfg)), cfg.sample_rate_hz)
    staged = unshaped_filter(modulated, cfg).data
    assert got.data.tobytes() == (staged * (1.0 / np.max(np.abs(staged)))).tobytes()
    assert got.sample_rate_hz == cfg.sample_rate_hz


def test_generate_ofdm_memory():
    """At most two full-length complex arrays are alive at once: the default
    burst's tracemalloc peak was 20.48 MB, two 10.24 MB arrays; the bound
    leaves 1 MB over them (chained stages: 30.7 MB)."""
    cfg = OfdmConfig()
    n = cfg.n_symbols * cfg.n_fft
    tracemalloc.start()
    try:
        generate_ofdm(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * n + 2**20, peak


def test_single_subcarrier_is_a_flat_tone():
    # one active bin in a single block: constant envelope end to end
    cfg = OfdmConfig(n_subcarriers=1, qam_order=4, n_symbols=1, oversampling=64)
    x = generate_ofdm(cfg)
    assert papr_db(x) == pytest.approx(0.0, abs=0.01)


def test_papr_reference_values():
    const = ComplexSeq(np.full(64, 0.7 + 0.1j))
    assert papr_db(const) == pytest.approx(0.0, abs=1e-12)

    # two equal tones: peak envelope 2A, mean power 2A^2 -> 3.01 dB
    n = np.arange(4000)
    two_tone = ComplexSeq(np.exp(2j * np.pi * 0.01 * n) + np.exp(2j * np.pi * 0.06 * n))
    assert papr_db(two_tone) == pytest.approx(10 * math.log10(2.0), abs=0.05)

    rng = np.random.default_rng(0)
    x = ComplexSeq(rng.standard_normal(256) + 1j * rng.standard_normal(256))
    assert papr_db(x.scaled(-2.5j)) == pytest.approx(papr_db(x), abs=1e-12)
    with pytest.raises(ValueError):
        papr_db(ComplexSeq(np.zeros(8)))


def test_signal_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    x = ComplexSeq(rng.standard_normal(50) + 1j * rng.standard_normal(50), 625e6)
    path = tmp_path / "sig.csv"
    write_signal_csv(x, path, comment="burst")
    n, i, q = np.loadtxt(path, delimiter=",", skiprows=2, unpack=True)
    assert np.array_equal(n, np.arange(50))
    assert np.array_equal(i + 1j * q, x.data)
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    assert meta == {"n_samples": 50, "sample_rate_hz": 625e6}
    header = path.read_text().splitlines()
    assert header[0] == "# burst"
    assert header[1] == "n,i,q"
