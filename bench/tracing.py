"""Spans around tfsim's public calls, installed from the benchmark's side.

Each wrapped call records a span: its name, start, end, the span that was
open when it started, and the job it ran for. Spans stay in memory until the
pass ends. Counts are taken at the same call boundaries. Wrappers are placed
at the names callers look the functions up by, so nothing in ``src/tfsim``
is edited; a name that no longer exists is reported as absent.

A layer's self time is the time in its spans minus the time their direct
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "circuit.parse_s": "s",
    "circuit.run_s": "s",
    "circuit.ops": "count",
    "gaussian.apply_s": "s",
    "gaussian.apply_calls": "count",
    "gaussian.wigner_eval_s": "s",
    "gaussian.wigner_cells": "count",
    "fgbs.build_s": "s",
    "fgbs.probability_s": "s",
    "fgbs.probability_calls": "count",
    "fgbs.enumerate_s": "s",
    "fgbs.patterns_enumerated": "count",
    "fgbs.oracle_s": "s",
    "hafnian.kernel_s": "s",
    "hafnian.kernel_terms": "count",
    "hafnian.recursion_s": "s",
    "hg.decompose_s": "s",
    "hg.quad_nodes": "count",
    "twophoton.sector_s": "s",
    "twophoton.sector_builds": "count",
    "twophoton.sector_max_k": "index",
    "twophoton.apply_fbs_s": "s",
    "metrology.best_precision_s": "s",
    "metrology.phase_precision_calls": "count",
    "cli.serialize_s": "s",
    "cli.out_bytes": "bytes",
    "cli.hom_s": "s",
    "cli.metrology_s": "s",
    "cli.fgbs_prob_s": "s",
    "cli.fgbs_sample_s": "s",
    "cli.wigner_s": "s",
}


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_run(counts, spec, *args, **kwargs):
    # Gates plus the input scalings that gate_ops prepends for non-unit widths.
    _add(counts, "circuit.ops", len(spec.ops) + sum(1 for w in spec.inputs if w != 1.0))


def _count_wigner(counts, state, grid, *args, **kwargs):
    _add(counts, "gaussian.wigner_cells", grid.omega_count * grid.t_count)


def _count_sample(counts, dist, shots, rng_seed, cutoff, *args, **kwargs):
    _add(counts, "fgbs.patterns_enumerated", (cutoff + 1) ** dist.n_modes)


def _count_total(counts, dist, cutoff, *args, **kwargs):
    _add(counts, "fgbs.patterns_enumerated", (cutoff + 1) ** dist.n_modes)


def _count_kernel(counts, A, pattern, *args, **kwargs):
    _add(counts, "hafnian.kernel_terms", math.prod((int(v) + 1) ** 2 for v in pattern))


def _count_decompose(counts, *args, **kwargs):
    # decompose's own defaults, read from the module so a change there is followed.
    hg = importlib.import_module("tfsim.hg")
    call = inspect.signature(hg.decompose).bind(*args, **kwargs)
    call.apply_defaults()
    rule = call.arguments["rule"]
    order = rule.order if rule is not None else 2 * call.arguments["cutoff"] + hg.MIN_ORDER_MARGIN
    _add(counts, "hg.quad_nodes", order + 2 * order)  # coarse rule plus the doubled one


def _count_sector(counts, k, *args, **kwargs):
    counts["twophoton.sector_max_k"] = max(counts.get("twophoton.sector_max_k", 0), int(k))


def _count_calls(key):
    return lambda counts, *args, **kwargs: _add(counts, key, 1)


# (module, name the callers look up, span name, metric taking its self time, count)
TARGETS = [
    ("tfsim.cli", "parse_circuit", "circuit.parse_circuit", "circuit.parse_s", None),
    ("tfsim.circuit", "parse_circuit", "circuit.parse_circuit", "circuit.parse_s", None),
    ("tfsim.cli", "run_circuit", "circuit.run_circuit", "circuit.run_s", _count_run),
    ("tfsim.circuit", "run_circuit", "circuit.run_circuit", "circuit.run_s", _count_run),
    ("tfsim.circuit", "apply", "gaussian.apply", "gaussian.apply_s",
     _count_calls("gaussian.apply_calls")),
    ("tfsim.gaussian", "wigner_eval", "gaussian.wigner_eval", "gaussian.wigner_eval_s",
     _count_wigner),
    ("tfsim.fgbs", "build_distribution", "fgbs.build_distribution", "fgbs.build_s", None),
    ("tfsim.fgbs", "probability", "fgbs.probability", "fgbs.probability_s",
     _count_calls("fgbs.probability_calls")),
    ("tfsim.fgbs", "sample", "fgbs.sample", "fgbs.enumerate_s", _count_sample),
    ("tfsim.fgbs", "total_probability", "fgbs.total_probability", "fgbs.enumerate_s",
     _count_total),
    ("tfsim.fgbs", "oracle_probability", "fgbs.oracle_probability", "fgbs.oracle_s", None),
    ("tfsim.fgbs", "reduced_hafnian", "hafnian.reduced_hafnian", "hafnian.kernel_s",
     _count_kernel),
    ("tfsim.hafnian", "hafnian", "hafnian.hafnian", "hafnian.recursion_s", None),
    ("tfsim.hg", "decompose", "hg.decompose", "hg.decompose_s", _count_decompose),
    ("tfsim.twophoton", "sector_matrix", "twophoton.sector_matrix", "twophoton.sector_s",
     _count_sector),
    ("tfsim.metrology", "sector_matrix", "twophoton.sector_matrix", "twophoton.sector_s",
     _count_sector),
    ("tfsim.twophoton", "apply_fbs", "twophoton.apply_fbs", "twophoton.apply_fbs_s", None),
    ("tfsim.metrology", "best_precision", "metrology.best_precision",
     "metrology.best_precision_s", None),
    ("tfsim.metrology", "phase_precision", "metrology.phase_precision",
     "metrology.best_precision_s", _count_calls("metrology.phase_precision_calls")),
    ("tfsim.cli", "wigner_csv_text", "cli.wigner_csv_text", "cli.serialize_s", None),
    ("tfsim.metrology", "sweep_csv_text", "cli.sweep_csv_text", "cli.serialize_s", None),
    ("tfsim.fgbs", "samples_to_jsonl", "cli.samples_to_jsonl", "cli.serialize_s", None),
    ("tfsim.cli", "_json_text", "cli.json_text", "cli.serialize_s", None),
]

# CLI subcommand (argv prefix) -> metric taking the whole in-process call.
CLI_METRICS = {
    ("hom",): "cli.hom_s",
    ("metrology",): "cli.metrology_s",
    ("fgbs", "prob"): "cli.fgbs_prob_s",
    ("fgbs", "sample"): "cli.fgbs_sample_s",
    ("wigner",): "cli.wigner_s",
}


def cli_metric(argv):
    for prefix, metric in CLI_METRICS.items():
        if tuple(argv[: len(prefix)]) == prefix:
            return metric
    raise ValueError(f"no CLI metric for {argv[:2]}")


class Tracer:
    """In-memory span recorder with call-boundary counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, job, metric, inclusive]
        self.counts = {}
        self.absent = []
        self.count_errors = []
        self.job = None
        self._stack = []
        self._installed = []

    @contextlib.contextmanager
    def span(self, name, metric=None, inclusive=False):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job,
                  metric, inclusive]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, metric, count):
        cache_info = getattr(original, "cache_info", None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else None
            with self.span(name, metric):
                result = original(*args, **kwargs)
            if count is not None:
                try:
                    count(self.counts, *args, **kwargs)
                except Exception as exc:  # a changed signature must not stop the run
                    self.count_errors.append(f"{name}: {exc!r}")
            if name == "twophoton.sector_matrix":
                # Cache misses are builds; without a cache every call builds.
                built = cache_info().misses - misses if cache_info else 1
                _add(self.counts, "twophoton.sector_builds", built)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, metric, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, metric, count))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def layer_metrics(self):
        """Per-layer self times and counts; layers never entered report 0."""
        metrics = dict.fromkeys(LAYER_METRICS, 0)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, job, metric, inclusive) in enumerate(self.spans):
            if metric is not None:
                metrics[metric] += (end - start) - (0.0 if inclusive else covered[i])
        metrics.update(self.counts)
        return metrics

    def span_records(self):
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "job": job}
            for name, start, end, parent, job, *_ in self.spans
        ]
