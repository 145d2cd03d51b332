"""Config codec: typed reads with dotted-path errors, plus round-trip and hash properties."""

import json
import math
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padpd.baselines import GmpConfig
from padpd.cli import _load_config, build_parser
from padpd.codec import from_dict, to_dict
from padpd.experiment import MODEL_KINDS, ExperimentConfig, config_hash, experiment_config_from_dict
from padpd.network import ACTIVATION_KINDS, Activation, ConvNetArch
from padpd.signals import OfdmConfig
from padpd.training import AdamConfig, LmConfig


def test_from_dict_reads_each_field_type():
    doc = {"memory_depth": 5, "conv_activation": {"kind": "elu", "alpha": 2}}
    arch = from_dict(ConvNetArch, doc, ConvNetArch())
    assert arch == ConvNetArch(memory_depth=5, conv_activation=Activation("elu", alpha=2.0))
    assert type(arch.conv_activation.alpha) is float  # an integer read into a float field
    cfg = experiment_config_from_dict({"reuse_filter_from": "model.json"})
    assert cfg.reuse_filter_from == "model.json"
    assert experiment_config_from_dict({"reuse_filter_from": None}).reuse_filter_from is None


@pytest.mark.parametrize("doc, message", [
    ([], "config must be an object, got an array"),
    ({"adam": {"max_iters": True}}, "adam.max_iters must be an integer, got a boolean true"),
    ({"adam": {"max_iters": 5.0}}, "adam.max_iters must be an integer, got a number 5.0"),
    ({"lm": {"mu_up": "10"}}, 'lm.mu_up must be a number, got a string "10"'),
    ({"model": None}, "model must be a string, got null"),
    ({"reuse_filter_from": []}, "reuse_filter_from must be a string or null, got an array"),
    ({"arch": {"fc_activation": {"kind": "tanh", "slope": 1}}},
     r"unknown keys under 'arch.fc_activation': \['arch.fc_activation.slope'\]"),
])
def test_from_dict_names_the_dotted_path(doc, message):
    with pytest.raises(ValueError, match=message):
        experiment_config_from_dict(doc)


def test_from_dict_without_base_needs_every_key():
    doc = to_dict(ConvNetArch())
    del doc["fc_activation"]["leak"]
    with pytest.raises(ValueError, match="missing key 'arch.fc_activation.leak'"):
        from_dict(ConvNetArch, doc, path="arch")


def test_constructor_checks_still_run():
    with pytest.raises(ValueError, match="kernel_cols"):
        experiment_config_from_dict({"arch": {"memory_depth": 1}})  # default 3-wide kernel
    with pytest.raises(ValueError, match="elu alpha"):
        experiment_config_from_dict({"arch": {"conv_activation": {"alpha": 0}}})


# --- properties over generated configs ------------------------------------

def _number(lo, hi, exclude_min=False, exclude_max=False):
    """A float field's value: a float, or an integer, which names the same config."""
    floats = st.floats(lo, hi, exclude_min=exclude_min, exclude_max=exclude_max)
    i_lo = math.ceil(lo) + (exclude_min and math.ceil(lo) == lo)
    i_hi = math.floor(hi) - (exclude_max and math.floor(hi) == hi)
    return floats | st.integers(i_lo, i_hi) if i_lo <= i_hi else floats


_SEED = st.integers(0, 2**32 - 1)
_ACTIVATIONS = st.builds(Activation, st.sampled_from(ACTIVATION_KINDS), _number(0, 10, exclude_min=True),
                         _number(0, 1, exclude_min=True, exclude_max=True))


@st.composite
def _archs(draw):
    m = draw(st.integers(0, 6))
    return ConvNetArch(memory_depth=m, n_kernels=draw(st.integers(1, 8)),
                       kernel_rows=draw(st.integers(1, 5)), kernel_cols=draw(st.integers(1, m + 1)),
                       fc_neurons=draw(st.integers(1, 16)),
                       conv_activation=draw(_ACTIVATIONS), fc_activation=draw(_ACTIVATIONS))


# (ka, la, kb, lb, mb, kc, lc, mc) with at least one term
_GMPS = st.tuples(*[st.integers(0, 6)] * 8).filter(
    lambda v: v[0] * v[1] + v[2] * v[3] * v[4] + v[5] * v[6] * v[7]).map(lambda v: GmpConfig(*v))

_FIELDS = st.fixed_dictionaries(dict(
    signal=st.builds(OfdmConfig, st.integers(1, 256), st.sampled_from([4, 16, 64, 256]),
                     st.integers(1, 5000), st.integers(1, 8), _number(0, 1), _SEED, _number(1, 1e10)),
    pa_seed=_SEED,
    pa_k_order=st.integers(2, 9),
    pa_q_depth=st.integers(1, 9),
    impairment_case=st.sampled_from([1, 2, 3]),
    model=st.sampled_from(MODEL_KINDS),
    arch=_archs(),
    adam=st.builds(AdamConfig, _number(0, 1, exclude_min=True), _number(0, 1, exclude_max=True),
                   _number(0, 1, exclude_max=True), _number(0, 1, exclude_min=True),
                   st.integers(1, 10**6), _number(0, 1)),
    lm=st.builds(LmConfig, _number(0, 1e3, exclude_min=True), _number(1, 100, exclude_min=True),
                 _number(0, 1, exclude_min=True, exclude_max=True), st.integers(1, 1000), _number(0, 1e3),
                 _number(1e3, 1e12), _number(0, 1, exclude_max=True)),
    gmp=_GMPS,
    split_seed=_SEED,
    init_seed=_SEED,
    ridge=_number(0, 10),
    drive_backoff_db=_number(0, 30),
    segment=st.integers(2, 4096),
))


@st.composite
def _configs(draw):
    """Any valid config: `dataset_count` leaves at least one `segment` of
    error-spectrum samples, which for gmp start at the basis' reach, and only
    a conv net names a saved filter, by a non-empty path."""
    f = draw(_FIELDS)
    m = f["arch"].memory_depth
    lost = max(m, f["gmp"].max_past) - m if f["model"] == "gmp" else 0
    reuse = draw(st.none() | st.text(min_size=1, max_size=20)) if f["model"] == "conv_net" else None
    return ExperimentConfig(**f, dataset_count=draw(st.integers(max(10, f["segment"] + lost), 10**6)),
                            reuse_filter_from=reuse)


_CONFIGS = _configs()


def _respelled(obj):
    """The same config with every float field spelled the other way: 10 <-> 10.0, 0 -> -0.0."""
    hints = typing.get_type_hints(type(obj))
    changes = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        if is_dataclass(v):
            changes[f.name] = _respelled(v)
        elif hints[f.name] is float:
            if isinstance(v, int):
                changes[f.name] = float(v) if v else -0.0
            elif v.is_integer():
                changes[f.name] = int(v)
    return replace(obj, **changes)


@settings(deadline=None)
@given(_CONFIGS)
def test_config_round_trips_through_json(cfg):
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    again = experiment_config_from_dict(json.loads(text))
    assert again == cfg
    assert json.dumps(again.to_dict(), sort_keys=True) == text


@settings(deadline=None)
@given(_CONFIGS)
def test_equal_configs_hash_equal(cfg):
    twin = _respelled(cfg)
    assert twin == cfg
    assert config_hash(twin) == config_hash(cfg)


@settings(deadline=None)
@given(_GMPS)
def test_gmp_config_from_numpy_integers_hashes(gmp):
    wide = GmpConfig(*[np.int64(getattr(gmp, f.name)) for f in fields(gmp)])
    assert all(type(getattr(wide, f.name)) is int for f in fields(wide))
    assert config_hash(ExperimentConfig(gmp=wide)) == config_hash(ExperimentConfig(gmp=gmp))


def _leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


@settings(deadline=None)
@given(_CONFIGS)
def test_set_overrides_rebuild_the_config(cfg):
    argv = ["run"]
    for dotted, value in _leaves(cfg.to_dict()):
        argv += ["--set", f"{dotted}={json.dumps(value)}"]
    assert _load_config(build_parser().parse_args(argv)) == cfg
