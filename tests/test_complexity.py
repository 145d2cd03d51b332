"""Coefficient-count and FLOP oracles for every model family.

The integer targets are fixed reference values for the shipped default
architectures; any change to the counting conventions must show up here.
"""

import pytest

from padpd.baselines import GmpConfig, gmp_table_config, mlp_baseline_spec
from padpd.complexity import (
    complexity_report,
    conv_net_coeff_count,
    conv_net_flops,
    gmp_coeff_count,
    gmp_flops,
    mlp_coeff_count,
    mlp_flops,
)
from padpd.network import ConvNetArch, init_params


def test_conv_net_default_arch_counts():
    arch = ConvNetArch()  # M=3, 3 kernels 3x3, 6 fc neurons
    assert conv_net_coeff_count(arch) == 158
    assert conv_net_flops(arch) == 876
    # the formula agrees with the actual parameter arrays
    assert sum(a.size for a in init_params(arch, 0).as_list()) == 158


def test_conv_net_memory_scaling():
    assert conv_net_coeff_count(ConvNetArch(memory_depth=2)) == 104
    assert conv_net_coeff_count(ConvNetArch(memory_depth=5)) == 266


def test_conv_net_kernel_variants():
    # narrow kernels change the map size and the FC fan-in
    spot = [
        (ConvNetArch(n_kernels=1, kernel_rows=2, kernel_cols=1, fc_neurons=20), 385),
        (ConvNetArch(n_kernels=1, kernel_rows=3, kernel_cols=1, fc_neurons=20), 306),
        (ConvNetArch(n_kernels=3, kernel_rows=3, kernel_cols=3, fc_neurons=20), 452),
    ]
    for arch, expect in spot:
        assert conv_net_coeff_count(arch) == expect
        assert sum(a.size for a in init_params(arch, 0).as_list()) == expect


def test_conv_net_formula_structure():
    arch = ConvNetArch(memory_depth=4, n_kernels=2, kernel_rows=2, kernel_cols=3, fc_neurons=5)
    b, c = 5 - 2 + 1, (4 + 1) - 3 + 1
    p = (2 * 3 * 1 * 2 + 2) + (b * c * 2 * 5 + 5) + (5 * 2 + 2)
    assert conv_net_coeff_count(arch) == p
    flops = (2 * 2 * 3 * b * c * 2 + 13 * b * c * 2) + (2 * b * c * 2 * 5 + 13 * 5) + 4 * 5
    assert conv_net_flops(arch) == flops


def test_gmp_counts():
    cfg = gmp_table_config()  # 107 complex terms
    assert gmp_coeff_count(cfg) == 214
    assert gmp_flops(cfg) == 854
    small = GmpConfig(ka=2, la=3)
    assert gmp_coeff_count(small) == 12
    assert gmp_flops(small) == 8 * 6 - 2


def test_mlp_baseline_counts():
    # widths include input and output layers; memory depth 3 -> 4 taps
    assert mlp_coeff_count(mlp_baseline_spec("arvtdnn").widths(3)) == 393
    assert mlp_coeff_count(mlp_baseline_spec("rvtdnn").widths(3)) == 387
    assert mlp_coeff_count(mlp_baseline_spec("dnn").widths(3)) == 801
    assert mlp_flops(mlp_baseline_spec("rvtdnn").widths(3)) == 1155


def test_mlp_formula_structure():
    widths = [8, 5, 3, 2]
    assert mlp_coeff_count(widths) == (8 + 1) * 5 + (5 + 1) * 3 + (3 + 1) * 2
    assert mlp_flops(widths) == (2 * 8 * 5 + 13 * 5) + (2 * 5 * 3 + 13 * 3) + 2 * 3 * 2
    with pytest.raises(ValueError):
        mlp_coeff_count([4])
    with pytest.raises(ValueError):
        mlp_flops([4, 0, 2])


def test_complexity_report_dispatch():
    out = complexity_report({"model": "conv_net"})
    assert out == {"model": "conv_net", "coefficients": 158, "flops": 876}

    out = complexity_report({"model": "gmp", "ka": 11, "la": 7, "kb": 3, "lb": 2,
                             "mb": 5, "kc": 2, "lc": 0, "mc": 3})
    assert out["coefficients"] == 214 and out["flops"] == 854

    out = complexity_report({"model": "mlp", "widths": [20, 17, 2]})
    assert out["coefficients"] == 393

    with pytest.raises(ValueError):
        complexity_report({"widths": [3, 2]})
    for kind in ("transformer", "lstm"):
        with pytest.raises(ValueError, match="unknown model kind"):
            complexity_report({"model": kind})
