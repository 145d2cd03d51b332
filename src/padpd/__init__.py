"""Power-amplifier behavioral modeling and digital predistortion workbench.

A small, fully seeded pipeline: OFDM drive generation, a synthetic
memory-polynomial PA with front-end impairments, a two-stage-trained
convolutional behavioral model (plus memory-polynomial and MLP baselines),
indirect-learning DPD, spectral metrics, and exact complexity audits.
"""

from .baselines import (
    GmpConfig,
    GmpModel,
    gmp_fit_ls,
    gmp_table_config,
)
from .basis_check import contains_basis_terms, expand_power, filter_tap_sum, tanh_taylor
from .complexity import (
    conv_net_coeff_count,
    conv_net_flops,
    gmp_coeff_count,
    gmp_flops,
    mlp_coeff_count,
    mlp_flops,
)
from .dataset import Dataset, build_dataset, feature_graphs
from .dpd import DpdResult, apply_dpd, estimate_linear_gain, evaluate_linearization
from .experiment import (
    ExperimentConfig,
    config_hash,
    experiment_config_from_dict,
    run_dpd_experiment,
    run_experiment,
    sweep_memory,
    train_dpd,
)
from .metrics import ChannelPlan, acpr_db, nmse_db, psd_welch
from .network import (
    Activation,
    ConvNetArch,
    ConvNetParams,
    forward,
    forward_batch,
    init_params,
    load_params,
    save_params,
)
from .pa import (
    ImpairmentConfig,
    PolyPaModel,
    apply_impairments,
    default_pa,
    gain_compression_db,
    pa_forward,
    transmit_chain,
)
from .signals import ComplexSeq, OfdmConfig, generate_ofdm, papr_db
from .training import (
    AdamConfig,
    LmConfig,
    LmResult,
    backprop_grads,
    mse_cost,
    train_stage1_adam,
    train_stage2_lm,
)

__version__ = "0.1.0"
