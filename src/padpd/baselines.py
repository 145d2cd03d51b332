"""Reference models the conv net is compared against.

Two families: a generalized memory polynomial (GMP) identified by least
squares, and a set of fully connected networks (time-delay real-valued nets
over I/Q, with or without envelope features, and a deeper sigmoid variant),
which `training.train_mlp_baseline` trains with the shared Adam loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .codec import to_dict
from .dataset import N_FEATURE_ROWS
from .signals import ComplexSeq

__all__ = [
    "GmpFitError",
    "GmpConfig",
    "GmpModel",
    "gmp_table_config",
    "gmp_envelope_powers",
    "gmp_basis_at",
    "gmp_fit_ls",
    "save_gmp",
    "MLP_FEATURE_KINDS",
    "mlp_features_from_graphs",
    "MlpBaselineSpec",
    "MLP_BASELINES",
    "mlp_baseline_spec",
]


class GmpFitError(RuntimeError):
    """Raised when the least-squares identification cannot proceed."""


@dataclass(frozen=True)
class GmpConfig:
    """Term-index ranges for the three memory-polynomial blocks.

    Aligned block: x(n-l)|x(n-l)|^k, k in 0..ka-1, l in 0..la-1.
    Lagging block: x(n-l)|x(n-l-m)|^k, k in 1..kb, l in 0..lb-1, m in 1..mb.
    Leading block: x(n-l)|x(n-l+m)|^k, k in 1..kc, l in 0..lc-1, m in 1..mc.
    """

    ka: int = 0
    la: int = 0
    kb: int = 0
    lb: int = 0
    mb: int = 0
    kc: int = 0
    lc: int = 0
    mc: int = 0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{f.name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, f.name, int(v))  # numpy integers become Python ints
        if self.n_terms < 1:
            raise ValueError("config produces zero terms")

    @property
    def n_terms(self) -> int:
        """Number of complex coefficients."""
        return self.ka * self.la + self.kb * self.lb * self.mb + self.kc * self.lc * self.mc

    @property
    def max_past(self) -> int:
        """Largest past index n-d referenced by any term."""
        past = 0
        if self.ka * self.la:
            past = max(past, self.la - 1)
        if self.kb * self.lb * self.mb:
            past = max(past, self.lb - 1 + self.mb)
        if self.kc * self.lc * self.mc:
            past = max(past, self.lc - 1)
        return past

    @property
    def max_future(self) -> int:
        """Largest future index n+d referenced (leading envelopes only)."""
        if self.kc * self.lc * self.mc:
            return self.mc  # worst case l=0, m=mc
        return 0


def gmp_table_config() -> GmpConfig:
    """The comparison configuration: 77+30+0 = 107 complex terms."""
    return GmpConfig(ka=11, la=7, kb=3, lb=2, mb=5, kc=2, lc=0, mc=3)


@dataclass(frozen=True)
class GmpModel:
    config: GmpConfig
    coeffs: np.ndarray  # complex, (n_terms,)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if c.size != self.config.n_terms:
            raise ValueError(f"expected {self.config.n_terms} coefficients, got {c.size}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)


def _column_specs(cfg: GmpConfig) -> list[tuple[int, int, int]]:
    """(signal delay l, envelope delay d, envelope order k) per column.

    Order is fixed: aligned, lagging, leading; within each block delay-major,
    then envelope shift, then order — so serialized coefficient vectors are
    unambiguous.
    """
    specs: list[tuple[int, int, int]] = []
    for l in range(cfg.la):
        for k in range(cfg.ka):
            specs.append((l, l, k))
    for l in range(cfg.lb):
        for m in range(1, cfg.mb + 1):
            for k in range(1, cfg.kb + 1):
                specs.append((l, l + m, k))
    for l in range(cfg.lc):
        for m in range(1, cfg.mc + 1):
            for k in range(1, cfg.kc + 1):
                specs.append((l, l - m, k))
    return specs


def gmp_envelope_powers(samples: np.ndarray, cfg: GmpConfig) -> dict:
    """|s(n)|^k of the samples for each envelope order k of the config's
    terms, keyed by k: what `gmp_basis_at` reads."""
    env = np.abs(samples)
    return {k: env**k for k in {k for _, _, k in _column_specs(cfg)}}


def gmp_basis_at(x: ComplexSeq, cfg: GmpConfig, n_indices: np.ndarray, powers: dict | None = None) -> np.ndarray:
    """Basis rows evaluated at the given absolute sample indices.

    Without ``powers`` the envelope powers are taken over the span of samples
    the indices reach. A caller that evaluates one signal's rows block by
    block passes the `gmp_envelope_powers` of all of ``x.data`` instead, so
    they are taken once.
    """
    n = np.asarray(n_indices, dtype=int).reshape(-1)
    if n.size == 0:
        raise ValueError("no sample indices given")
    if n.min() - cfg.max_past < 0 or n.max() + cfg.max_future >= len(x):
        raise ValueError("requested indices reach outside the signal for this config")
    # one gather per signal delay and one power per envelope order; column j
    # is then one product of two gathers
    lo = 0
    if powers is None:
        lo = n.min() - cfg.max_past
        powers = gmp_envelope_powers(x.data[lo : n.max() + cfg.max_future + 1], cfg)
    span, n = x.data[lo:], n - lo
    specs = _column_specs(cfg)
    delayed = {l: span[n - l] for l in {l for l, _, _ in specs}}
    cols = np.empty((n.size, cfg.n_terms), dtype=np.complex128)
    for j, (l, d, k) in enumerate(specs):
        np.multiply(delayed[l], powers[k][n - d], out=cols[:, j])
    return cols


# rows per Householder block. LAPACK's QR of this few columns runs unblocked,
# one pass over the matrix per column; a block of the table config's [A | y]
# (1024 x 108 complex, 1.8 MB) stays in a 4 MB L2 for all of its passes. A fit
# whose basis is a function of row slices holds no more of it than one block.
_QR_BLOCK = 1024


def gmp_fit_ls(basis, y: np.ndarray, cfg: GmpConfig, ridge: float = 0.0) -> GmpModel:
    """Least-squares coefficients, optionally ridge-regularized.

    ``basis`` holds the columns of ``cfg`` (from `gmp_basis_at`), in its
    order, one row per target sample: a matrix, or a function that returns
    the matrix's rows in a given slice, which it is called with once per
    block. Both give the same bytes.

    A tall-skinny QR: Householder QR of ``[basis | y]`` one block of
    `_QR_BLOCK` rows at a time, then of the stacked R factors. The final R's
    leading triangle and last column give the coefficients by one triangular
    solve. Ridge appends sqrt(ridge)·I rows to the stack, which solves the
    regularized problem on the same path. With ridge = 0 a rank-deficient
    basis is an error (add ridge to proceed); the rank counts the triangle's
    singular values above lstsq's cutoff, eps·max(rows, cols)·s_max.
    """
    target = np.asarray(y, dtype=np.complex128).reshape(-1)
    rows, cols = target.size, cfg.n_terms
    if not callable(basis):
        matrix = np.asarray(basis, dtype=np.complex128)
        if matrix.ndim != 2:
            raise ValueError("basis must be a 2-D matrix")
        if matrix.shape[0] != rows:
            raise ValueError(f"target length {rows} does not match {matrix.shape[0]} basis rows")
        if matrix.shape[1] != cols:
            raise ValueError(f"basis has {matrix.shape[1]} columns, but the config has {cols} terms")
        basis = matrix.__getitem__
    if rows < cols:
        raise ValueError(f"underdetermined system: {rows} rows < {cols} columns")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")

    aug = np.empty((min(rows, _QR_BLOCK), cols + 1), dtype=np.complex128)
    factors = []
    for lo in range(0, rows, _QR_BLOCK):
        part = slice(lo, min(rows, lo + _QR_BLOCK))
        block = aug[: part.stop - lo]
        block[:, :cols] = basis(part)
        block[:, cols] = target[part]
        factors.append(np.linalg.qr(block, mode="r"))
    if ridge > 0:
        factors.append(np.eye(cols, cols + 1) * np.sqrt(ridge))
    r = np.linalg.qr(np.vstack(factors), mode="r")
    tri = r[:cols, :cols]
    if ridge == 0.0:
        s = np.linalg.svd(tri, compute_uv=False)
        rank = np.count_nonzero(s > np.finfo(float).eps * max(rows, cols) * s[0])
        if rank < cols:
            raise GmpFitError(
                f"basis is rank-deficient ({rank} < {cols}); pass ridge > 0 to regularize"
            )
    return GmpModel(cfg, np.linalg.solve(tri, r[:cols, cols]))


def save_gmp(model: GmpModel, path) -> None:
    doc = {
        "config": to_dict(model.config),
        "coeffs": [[float(c.real), float(c.imag)] for c in model.coeffs],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- fully connected baselines -------------------------------------------

MLP_FEATURE_KINDS = ("iq", "iq_env")


def mlp_features_from_graphs(graphs: np.ndarray, kind: str, dtype=float) -> np.ndarray:
    """Flatten feature graphs into MLP input rows, in ``dtype``.

    "iq" keeps only the I/Q rows (2(M+1) inputs); "iq_env" keeps all five
    rows (5(M+1) inputs). Row-major flattening, newest sample first within
    each row — the same layout the graphs themselves use. The kept rows are
    cast once, so another dtype than float64 takes no float64 copy of them.
    """
    graphs = np.asarray(graphs)
    if graphs.ndim != 3 or graphs.shape[1] != N_FEATURE_ROWS:
        raise ValueError(f"graphs must have shape (n, 5, M+1), got {graphs.shape}")
    if kind not in MLP_FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {MLP_FEATURE_KINDS}")
    rows = graphs[:, :2, :] if kind == "iq" else graphs
    return np.asarray(rows, dtype=dtype).reshape(graphs.shape[0], -1)


@dataclass(frozen=True)
class MlpBaselineSpec:
    """A named fully connected baseline: feature layout plus layer widths."""

    name: str
    hidden_widths: tuple
    hidden_activation: str
    feature_kind: str

    def __post_init__(self):
        if self.feature_kind not in MLP_FEATURE_KINDS:
            raise ValueError(f"feature_kind must be one of {MLP_FEATURE_KINDS}")
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")

    def input_width(self, memory_depth: int) -> int:
        per_tap = 2 if self.feature_kind == "iq" else N_FEATURE_ROWS
        return per_tap * (memory_depth + 1)

    def widths(self, memory_depth: int) -> list[int]:
        return [self.input_width(memory_depth), *self.hidden_widths, 2]


MLP_BASELINES = {
    # I/Q-only time-delay net, one wide tanh hidden layer
    "rvtdnn": MlpBaselineSpec("rvtdnn", (35,), "tanh", "iq"),
    # augmented variant: adds the envelope-power rows to the input
    "arvtdnn": MlpBaselineSpec("arvtdnn", (17,), "tanh", "iq_env"),
    # deeper sigmoid net on I/Q only
    "dnn": MlpBaselineSpec("dnn", (17, 17, 17), "sigmoid", "iq"),
}


def mlp_baseline_spec(name: str) -> MlpBaselineSpec:
    try:
        return MLP_BASELINES[name]
    except KeyError:
        raise ValueError(
            f"unknown baseline {name!r}; expected one of {sorted(MLP_BASELINES)}"
        ) from None

