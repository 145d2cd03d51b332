"""Spans around padpd's public functions, recorded from outside the package.

A `Tracer` rebinds each traced function under the module names its callers
look it up by (``padpd.experiment.train_stage1_adam``,
``padpd.dpd.train_stage1_adam``, ...), so the pipeline code itself is not
changed. Every call becomes a `Span` with a name, start, end, parent span
and the operation id it belongs to; spans stay in memory until the run
writes them out. A layer's self time is its span's duration minus the time
covered by its child spans, so the self times of one operation add up to
the operation's traced wall time.

Counts (rows, iterations, samples) are read from the arguments and results
at the same boundaries. FLOP and byte figures are computed, not measured:
FLOPs use ``padpd.complexity`` per-sample counts times rows, bytes are the
sizes of the arrays a call is given or returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

EXP, DPD, DATASET, TRAINING = "padpd.experiment", "padpd.dpd", "padpd.dataset", "padpd.training"


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


# --- counters: (bound arguments, result) -> counts ------------------------

def _conv_flops(arch) -> int:
    # Imported here: run.py reads this module's metric list without padpd on its path.
    from padpd.complexity import conv_net_flops

    return conv_net_flops(arch)


def _stage1_counts(a, result):
    rows = a["train"].graphs.shape[0]
    graph_bytes = a["train"].graphs.nbytes
    if a.get("test") is not None:
        rows += a["test"].graphs.shape[0]
        graph_bytes += a["test"].graphs.nbytes
    iters = result[1].shape[0]
    return {"iters": iters, "flop": _conv_flops(a["arch"]) * rows * iters,
            "bytes": graph_bytes * iters}


def _lm_counts(a, result):
    hist = result[1].history
    accepted = int(hist[:, 3].sum()) if hist.size else 0
    return {"iters": hist.shape[0], "accepted": accepted, "rejected": hist.shape[0] - accepted}


def _forward_counts(a, result):
    rows = result.shape[0]
    return {"rows": rows, "flop": _conv_flops(a["arch"]) * rows, "bytes": a["graphs"].nbytes}


def _rows(a, result):
    return {"rows": result.shape[0]}


def _graph_counts(a, result):
    return {"rows": result.shape[0], "bytes": result.nbytes}


def _samples_of(arg: str):
    return lambda a, result: {"samples": len(a[arg])}


def _samples_out(a, result):
    return {"samples": len(result)}


def _iters(a, result):
    return {"iters": result[1].shape[0]}


@dataclass(frozen=True)
class Layer:
    name: str
    sites: tuple  # (module, attribute) bindings the pipeline calls through
    count: Callable | None = None
    memory: bool = False  # record the tracemalloc peak of allocations in the call


LAYERS = (
    Layer("experiment.run_experiment", ((EXP, "run_experiment"),)),
    Layer("experiment.run_dpd_experiment", ((EXP, "run_dpd_experiment"),)),
    Layer("signals.generate_ofdm", ((EXP, "generate_ofdm"),), _samples_out),
    Layer("pa.default_pa", ((EXP, "default_pa"),)),
    Layer("pa.transmit_chain", ((EXP, "transmit_chain"), (DPD, "transmit_chain")), _samples_of("x")),
    Layer("dataset.build_dataset", ((EXP, "build_dataset"), (DATASET, "build_dataset"))),
    Layer("dataset.feature_graphs",
          ((EXP, "feature_graphs"), (DPD, "feature_graphs"), (DATASET, "feature_graphs")),
          _graph_counts),
    Layer("training.train_stage1_adam",
          ((EXP, "train_stage1_adam"), (DPD, "train_stage1_adam")), _stage1_counts),
    Layer("training.adam_step", ((TRAINING, "adam_step"),)),
    Layer("training.train_stage2_lm", ((EXP, "train_stage2_lm"), (DPD, "train_stage2_lm")), _lm_counts),
    Layer("baselines.train_mlp_baseline", ((EXP, "train_mlp_baseline"),), _iters),
    Layer("baselines.gmp_basis_at", ((EXP, "gmp_basis_at"),), _rows),
    Layer("baselines.gmp_fit_ls", ((EXP, "gmp_fit_ls"),)),
    Layer("network.forward_batch", ((EXP, "forward_batch"), (DPD, "forward_batch")), _forward_counts),
    Layer("network.mlp_forward", ((EXP, "mlp_forward"),), _rows),
    Layer("dpd.train_dpd", ((EXP, "train_dpd"),)),
    Layer("dpd.apply_dpd", ((DPD, "apply_dpd"),), _samples_of("x"), memory=True),
    Layer("dpd.evaluate_linearization", ((EXP, "evaluate_linearization"),)),
    Layer("metrics.psd_welch", ((EXP, "psd_welch"), (DPD, "psd_welch")), _samples_of("x")),
)


class Tracer:
    """Records spans while installed; `install`/`uninstall` bracket one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list = []
        self._op = -1

    def install(self, op: int) -> None:
        self._op = op
        for layer in LAYERS:
            for module_name, attr in layer.sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn) if layer.count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(self._op, len(self.spans), parent, layer.name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            watch = layer.memory and not tracemalloc.is_tracing()
            if watch:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if watch:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.end = time.perf_counter()
                self._stack.pop()
            if layer.count:
                span.counts.update(layer.count(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def op_summary(self, op: int) -> dict:
        """Per layer: calls, inclusive and self seconds, and summed counts."""
        spans = [s for s in self.spans if s.op == op]
        covered = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        summary: dict = {}
        for s in spans:
            entry = summary.setdefault(s.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += s.end - s.start
            entry["self_s"] += s.end - s.start - covered[s.id]
            for key, value in s.counts.items():
                entry[key] = max(entry.get(key, 0), value) if key == "peak_bytes" else entry.get(key, 0) + value
        return summary


# --- per-layer metrics: (name, unit, better, value from an op summary) ----

def _get(layer: str, key: str, scale: float = 1.0):
    return lambda summary: scale * summary.get(layer, {}).get(key, 0)


def _ratio(num, den, scale=1.0):
    return lambda summary: scale * num(summary) / den(summary) if den(summary) else 0.0


def _layer_metrics() -> list[tuple]:
    out = []
    for layer in LAYERS:
        suffix = "self_s" if layer.name.startswith("experiment.") else "s"
        out.append((f"{layer.name}.{suffix}", "s", "lower", _get(layer.name, "self_s")))

    def n(layer, key):
        return (f"{layer}.{key}", "count", "lower", _get(layer, key))

    stage1, lm, fwd = "training.train_stage1_adam", "training.train_stage2_lm", "network.forward_batch"
    mlp, graphs = "baselines.train_mlp_baseline", "dataset.feature_graphs"
    out += [
        n(stage1, "iters"),
        (f"{stage1}.ms_per_iter", "ms", "lower", _ratio(_get(stage1, "incl_s"), _get(stage1, "iters"), 1e3)),
        (f"{stage1}.gflop_s", "GFLOP/s", "higher", _ratio(_get(stage1, "flop"), _get(stage1, "incl_s"), 1e-9)),
        (f"{stage1}.gflop_computed", "GFLOP", "lower", _get(stage1, "flop", 1e-9)),
        (f"{stage1}.mb_computed", "MB", "lower", _get(stage1, "bytes", 1e-6)),
        (f"{stage1}.flop_per_byte", "FLOP/B", "higher", _ratio(_get(stage1, "flop"), _get(stage1, "bytes"))),
        n("training.adam_step", "calls"),
        n(lm, "iters"), n(lm, "accepted"), n(lm, "rejected"),
        (f"{mlp}.ms_per_iter", "ms", "lower", _ratio(_get(mlp, "incl_s"), _get(mlp, "iters"), 1e3)),
        n("baselines.gmp_basis_at", "rows"),
        n(fwd, "rows"),
        (f"{fwd}.gflop_s", "GFLOP/s", "higher", _ratio(_get(fwd, "flop"), _get(fwd, "incl_s"), 1e-9)),
        (f"{fwd}.gflop_computed", "GFLOP", "lower", _get(fwd, "flop", 1e-9)),
        (f"{fwd}.mb_computed", "MB", "lower", _get(fwd, "bytes", 1e-6)),
        (f"{fwd}.flop_per_byte", "FLOP/B", "higher", _ratio(_get(fwd, "flop"), _get(fwd, "bytes"))),
        n("dpd.apply_dpd", "samples"),
        ("dpd.apply_dpd.peak_mb", "MB", "lower", _get("dpd.apply_dpd", "peak_bytes", 1e-6)),
        n(graphs, "rows"),
        (f"{graphs}.bytes_computed", "B", "lower", _get(graphs, "bytes")),
        n("signals.generate_ofdm", "samples"),
        n("pa.transmit_chain", "calls"), n("pa.transmit_chain", "samples"),
        n("metrics.psd_welch", "calls"), n("metrics.psd_welch", "samples"),
    ]
    return out


LAYER_METRICS = _layer_metrics()

# Whole-operation figures from the traced run, reported with the layers.
TRACE_METRICS = (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
)


def layer_values(summary: dict) -> dict:
    return {name: float(fn(summary)) for name, _unit, _better, fn in LAYER_METRICS}


def per_layer_specs() -> list[tuple]:
    """(name, unit, better) for every per-layer metric, in report order."""
    return [(name, unit, better) for name, unit, better, _fn in LAYER_METRICS] + list(TRACE_METRICS)
