"""Paired perfbench runs of two checkouts: one workload, alternating order.

    python3 tools/bench_pairs.py --workload model-conv --parent ../parent --change . \
        --pairs 10 --trace-pairs 2 --seed 1 --seconds 24 --out BENCH_8.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; the first side alternates from pair to pair, so a drift of
the host's speed hits both sides alike. Each run's last stdout line is its
JSON result. The output file holds, per end-to-end metric, both sides'
values, medians and quartiles and the number of pairs the change won (ties
count for neither side), plus each run's environment fingerprint. After
them, ``--trace-pairs`` pairs of ``--trace 1`` runs, alternating the same
way, give the same figures for every per-layer metric under "per_layer".
The file is keyed by workload: a workload already in the file is replaced,
the others are kept.

Each end-to-end metric also gets a verdict, printed with it (``better`` is
the direction ``BENCHMARK.json`` gives the metric, ``bound`` its bound):

- ``gain``: the change wins at least 9/10 of the pairs and its median is
  better than the parent's by more than the parent's interquartile spread;
- ``worse``: the change's median is worse than the parent's by more than
  ``bound`` times the parent's median;
- ``unresolved``: either side's interquartile spread is wider than that
  bound, neither rule above applies, and not every run of the change reads
  better than every run of the parent;
- ``same``: anything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _describe(checkout: Path) -> str | None:
    """The checkout's commit (with ``-dirty`` if it has local edits), if it is a git tree."""
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(checkout: Path, args, trace: int) -> tuple[dict, dict]:
    """One perfbench run in ``checkout``: (result line, fingerprint)."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per-metric spread of each side and the change's wins over the pairs."""
    metrics = {}
    for name, meta in runs["change"][0]["metrics"].items():
        side = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in ("parent", "change")}
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        metrics[name] = {"unit": meta["unit"], "better": better.get(name, "lower"),
                         "parent": _spread(side["parent"]), "change": _spread(side["change"]),
                         "change_wins": wins}
    return metrics


def verdict(metric: dict, bound: float) -> str:
    """The verdict of one end-to-end metric's `summarize` entry (see the module docstring)."""
    parent, change = metric["parent"], metric["change"]
    sign = 1 if metric["better"] == "higher" else -1
    gain = sign * (change["median"] - parent["median"])
    allowed = bound * abs(parent["median"])
    if 10 * metric["change_wins"] >= 9 * len(parent["values"]) and gain > parent["q3"] - parent["q1"]:
        return "gain"
    if -gain > allowed:
        return "worse"
    apart = min(sign * v for v in change["values"]) > max(sign * v for v in parent["values"])
    if max(side["q3"] - side["q1"] for side in (parent, change)) > allowed and not apart:
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace-pairs", type=int, default=0, help="pairs of --trace 1 runs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.trace_pairs < 0 or args.trace_pairs == 1:
        parser.error("--pairs must be at least 2 and --trace-pairs 0 or at least 2 "
                     "(quartiles need two values)")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    traced: dict[str, list[dict]] = {"parent": [], "change": []}
    fingerprints: dict[str, list[dict]] = {"parent": [], "change": []}
    for trace, pairs, out, shown in ((0, args.pairs, runs, "wall_s"),
                                     (1, args.trace_pairs, traced, "trace.wall_s")):
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                line, fingerprint = run_once(checkouts[side], args, trace)
                if not line["correct"]:
                    print(f"warning: trace {trace} pair {i + 1} {side} run failed a check", file=sys.stderr)
                out[side].append(line)
                fingerprints[side].append(fingerprint)
            wall = {s: out[s][-1]["metrics"][shown]["value"] for s in order}
            print(f"trace {trace} pair {i + 1}/{pairs} ({order[0]} first): parent {wall['parent']:.4g} s, "
                  f"change {wall['change']:.4g} s", flush=True)

    metrics = summarize(runs, better)
    for name, m in metrics.items():
        if name in bounds:
            m["verdict"] = verdict(m, bounds[name])
    entry = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "commits": {s: _describe(c) for s, c in checkouts.items()},
        "trace_pairs": args.trace_pairs,
        "all_correct": all(r["correct"] for t in (runs, traced) for side in t.values() for r in side),
        "metrics": metrics,
        "per_layer": summarize(traced, better) if args.trace_pairs else {},
        # one fingerprint per side when every run of that side printed the same one
        "fingerprint": {s: f[0] if all(x == f[0] for x in f) else f for s, f in fingerprints.items()},
    }
    table = json.loads(args.out.read_text()) if args.out.is_file() else {}
    table[args.workload] = entry
    args.out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    for metrics, pairs in ((entry["metrics"], args.pairs), (entry["per_layer"], args.trace_pairs)):
        for name, m in metrics.items():
            if any(m[s]["values"] != [0.0] * pairs for s in ("parent", "change")):  # skip idle layers
                print(f"{name}: parent {m['parent']['median']:.6g} [{m['parent']['q1']:.6g}, "
                      f"{m['parent']['q3']:.6g}] change {m['change']['median']:.6g} [{m['change']['q1']:.6g}, "
                      f"{m['change']['q3']:.6g}] {m['unit']}, change better in {m['change_wins']}/{pairs}"
                      + (f": {m['verdict']}" if "verdict" in m else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
