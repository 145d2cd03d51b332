"""Coefficient-count and per-sample FLOP calculators for each model family.

Counting conventions shared by all families:
  - a "coefficient" is one trainable real scalar (complex values count twice);
  - FLOPs are real operations per output sample: a real multiply-add is 2,
    a complex multiply 6, a complex add 2, and one activation evaluation
    costs ``act_cost`` (default 13, covering the exp-based functions).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from .baselines import GmpConfig
from .codec import from_dict
from .network import ConvNetArch

__all__ = [
    "DEFAULT_ACT_COST",
    "conv_net_coeff_count",
    "conv_net_flops",
    "gmp_coeff_count",
    "gmp_flops",
    "mlp_coeff_count",
    "mlp_flops",
    "complexity_report",
]

DEFAULT_ACT_COST = 13


def conv_net_coeff_count(arch: ConvNetArch) -> int:
    """Trainable scalars: conv kernels+biases, FC layer, output layer."""
    r, s = arch.kernel_rows, arch.kernel_cols
    l_k, t = arch.n_kernels, arch.fc_neurons
    b, c = arch.map_rows, arch.map_cols
    p_conv = r * s * l_k + l_k
    p_fc = b * c * l_k * t + t
    p_out = t * 2 + 2
    return p_conv + p_fc + p_out


def conv_net_flops(arch: ConvNetArch, act_cost: int = DEFAULT_ACT_COST) -> int:
    """Per-sample FLOPs: multiply-adds plus activation costs per layer."""
    r, s = arch.kernel_rows, arch.kernel_cols
    l_k, t = arch.n_kernels, arch.fc_neurons
    b, c = arch.map_rows, arch.map_cols
    f_conv = 2 * r * s * b * c * l_k + act_cost * b * c * l_k
    f_fc = 2 * b * c * l_k * t + act_cost * t
    f_out = 4 * t
    return f_conv + f_fc + f_out


def gmp_coeff_count(cfg: GmpConfig) -> int:
    """Real scalars: two per complex polynomial coefficient."""
    return 2 * cfg.n_terms


def gmp_flops(cfg: GmpConfig) -> int:
    """One complex multiply (6) per term plus complex adds (2) between terms."""
    return 8 * cfg.n_terms - 2


def _check_widths(widths: Sequence[int], minimum_layers: int = 2) -> list[int]:
    w = [int(v) for v in widths]
    if len(w) < minimum_layers:
        raise ValueError(f"need at least {minimum_layers} layer widths, got {len(w)}")
    if any(v < 1 for v in w):
        raise ValueError("layer widths must be >= 1")
    return w


def mlp_coeff_count(widths: Sequence[int]) -> int:
    """Weights + biases over all layers: sum of (N_prev + 1) * N_next."""
    w = _check_widths(widths)
    return sum((w[i - 1] + 1) * w[i] for i in range(1, len(w)))


def mlp_flops(widths: Sequence[int], act_cost: int = DEFAULT_ACT_COST) -> int:
    """Multiply-adds plus activations on hidden layers; linear output layer."""
    w = _check_widths(widths)
    total = 0
    for i in range(1, len(w) - 1):
        total += 2 * w[i - 1] * w[i] + act_cost * w[i]
    total += 2 * w[-2] * w[-1]
    return total


@dataclass(frozen=True)
class _MlpSpec:
    widths: list[int]
    act_cost: int


def complexity_report(spec: dict) -> dict:
    """Dispatch a {"model": ..., ...} spec to the matching calculators.

    Models: "conv_net" (ConvNetArch fields, defaults for those left out),
    "gmp" (GmpConfig fields, 0 for those left out) and "mlp" ({"widths":
    [...], "act_cost"?}). Every field is type-checked like a config field.
    """
    if not isinstance(spec, dict) or "model" not in spec:
        raise ValueError('spec must be an object with a "model" key')
    kind = spec["model"]
    params = {k: v for k, v in spec.items() if k != "model"}
    if kind == "conv_net":
        arch = from_dict(ConvNetArch, params, ConvNetArch())
        return {"model": kind, "coefficients": conv_net_coeff_count(arch), "flops": conv_net_flops(arch)}
    if kind == "gmp":
        cfg = from_dict(GmpConfig, {f.name: 0 for f in fields(GmpConfig)} | params)
        return {"model": kind, "coefficients": gmp_coeff_count(cfg), "flops": gmp_flops(cfg)}
    if kind == "mlp":
        mlp = from_dict(_MlpSpec, {"act_cost": DEFAULT_ACT_COST} | params)
        return {
            "model": kind,
            "coefficients": mlp_coeff_count(mlp.widths),
            "flops": mlp_flops(mlp.widths, mlp.act_cost),
        }
    raise ValueError(f"unknown model kind {kind!r}")
