"""Command-line entry points.

Subcommands: gen-signal, run, dpd, complexity, sweep-memory, basis-check.
Experiments are described by a JSON config file; individual fields can be
overridden with repeated --set dotted.path=value flags. Set PADPD_VERBOSE=1
for one progress line per command (output verbosity is the only thing the
environment controls).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .basis_check import contains_basis_terms, expand_power, filter_tap_sum, tanh_taylor
from .complexity import complexity_report
from .experiment import (
    ExperimentConfig,
    StageError,
    config_hash,
    experiment_config_from_dict,
    run_dpd_experiment,
    run_experiment,
    sweep_memory,
)
from .signals import generate_ofdm, papr_db, write_signal_csv

VERBOSE_ENV = "PADPD_VERBOSE"


def _verbose() -> bool:
    return os.environ.get(VERBOSE_ENV, "") not in ("", "0")


def _say(msg: str) -> None:
    if _verbose():
        print(msg, file=sys.stderr)


def _set_by_path(doc: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    if not all(keys):
        raise ValueError(f"bad override path {dotted!r}")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"override path {dotted!r} collides with a scalar")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node[keys[-1]] = value


def _load_config(args) -> ExperimentConfig:
    doc: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ValueError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    for override in getattr(args, "overrides", None) or []:
        if "=" not in override:
            raise ValueError(f"--set expects key=value, got {override!r}")
        dotted, raw = override.split("=", 1)
        _set_by_path(doc, dotted, raw)
    return experiment_config_from_dict(doc)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (dotted path, JSON value); repeatable",
    )


def _cmd_gen_signal(args) -> int:
    cfg = _load_config(args)
    _say("generating OFDM drive")
    x = generate_ofdm(cfg.signal)
    out = Path(args.out)
    write_signal_csv(x, out, comment=f"config_hash={config_hash(cfg)}")
    print(f"wrote {out} ({len(x)} samples)")
    print(f"papr_db={papr_db(x):.3f}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    _say(f"running modeling experiment ({cfg.model}, case {cfg.impairment_case})")
    report = run_experiment(cfg, args.output_dir)
    res = report["results"]
    print(f"config_hash={report['config_hash']}")
    print(f"model={res['model']} coefficients={res['coeff_count']} flops={res['flops']}")
    print(f"nmse_train_db={res['nmse_train_db']:.3f}")
    print(f"nmse_test_db={res['nmse_test_db']:.3f}")
    print(f"report written to {Path(args.output_dir) / 'report.json'}")
    return 0


def _cmd_dpd(args) -> int:
    cfg = _load_config(args)
    _say("running indirect-learning DPD experiment")
    report = run_dpd_experiment(cfg, args.output_dir)
    res = report["result"]
    lo_b, hi_b = res["acpr_before_db"]
    lo_a, hi_a = res["acpr_after_db"]
    print(f"config_hash={report['config_hash']}")
    print(f"acpr_before_db={lo_b:.2f}/{hi_b:.2f}")
    print(f"acpr_after_db={lo_a:.2f}/{hi_a:.2f}")
    print(f"improvement_db={res['improvement_db'][0]:.2f}/{res['improvement_db'][1]:.2f}")
    print(f"nmse_inverse_db={res['nmse_inverse_db']:.3f}")
    if res["peak_exceeded"]:
        print(
            f"warning: predistorted peak {res['predistorted_peak']:.3f} exceeds "
            f"ceiling {res['peak_ceiling']:.3f}"
        )
    print(f"results written to {Path(args.output_dir) / 'dpd_result.json'}")
    return 0


def _cmd_complexity(args) -> int:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.spec)
        if not path.exists():
            raise ValueError(f"spec file not found: {path}")
        text = path.read_text()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec is not valid JSON: {exc}") from None
    print(json.dumps(complexity_report(spec), indent=2, sort_keys=True))
    return 0


def _cmd_sweep_memory(args) -> int:
    cfg = _load_config(args)
    m_values = [int(v) for v in args.memory_depths.split(",") if v.strip()]
    if not m_values:
        raise ValueError("--memory-depths needs at least one value, e.g. 2,3,5")
    _say(f"sweeping memory depths {m_values}")
    rows = sweep_memory(cfg, m_values, args.output_dir)
    print("memory_depth,coeff_count,nmse_train_db,nmse_test_db")
    for r in rows:
        print(
            f"{r['memory_depth']},{r['coeff_count']},"
            f"{r['nmse_train_db']:.3f},{r['nmse_test_db']:.3f}"
        )
    return 0


def _cmd_basis_check(args) -> int:
    taps = filter_tap_sum(args.delays)
    expansion = tanh_taylor(taps, args.order)
    report = contains_basis_terms(expansion, args.memory_depth, args.max_order)
    key_coeff = expand_power(taps, 3).coefficient({"b": 1, "i0": 1, "e0": 1})
    print(report.format_table())
    print(f"cube coefficient of b*I(n)*env(n): {key_coeff}")
    if not report.all_present:
        print(f"{report.n_missing} expected terms missing", file=sys.stderr)
        return 1
    print("all expected basis terms present")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padpd",
        description="PA behavioral modeling and digital predistortion workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-signal", help="generate the OFDM drive and write it to CSV")
    _add_config_args(p)
    p.add_argument("--out", default="ofdm_signal.csv", help="output CSV path")
    p.set_defaults(fn=_cmd_gen_signal)

    p = sub.add_parser("run", help="run the forward-modeling experiment")
    _add_config_args(p)
    p.add_argument("--output-dir", default="padpd_run", help="directory for reports")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("dpd", help="train and evaluate the predistorter")
    _add_config_args(p)
    p.add_argument("--output-dir", default="padpd_dpd", help="directory for reports")
    p.set_defaults(fn=_cmd_dpd)

    p = sub.add_parser("complexity", help="coefficient/FLOP audit of a model spec")
    p.add_argument("--spec", required=True, help="model spec JSON file, or - for stdin")
    p.set_defaults(fn=_cmd_complexity)

    p = sub.add_parser("sweep-memory", help="repeat the experiment across memory depths")
    _add_config_args(p)
    p.add_argument("--memory-depths", required=True, help="comma-separated list, e.g. 2,3,5")
    p.add_argument("--output-dir", default=None, help="optional directory for the sweep CSV")
    p.set_defaults(fn=_cmd_sweep_memory)

    p = sub.add_parser("basis-check", help="symbolic check of the filter's basis terms")
    p.add_argument("--delays", type=int, default=3, help="window width in delay taps")
    p.add_argument("--order", type=int, default=3, help="tanh Taylor order (3 or 5)")
    p.add_argument("--memory-depth", type=int, default=2, help="largest envelope delay to require")
    p.add_argument("--max-order", type=int, default=2, help="largest envelope power to require")
    p.set_defaults(fn=_cmd_basis_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
