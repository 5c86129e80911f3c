"""In-process spans around the public functions of each waveinput module.

``Tracer.installed()`` replaces every public function of the layer modules
(and ``SolutionField.u``) with a wrapper that records a span -- layer, name,
parent span, start, end -- and restores the originals on exit.  Spans stay
in memory; ``layer_metrics`` turns one pass worth of spans into the
per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "functions", "tbvp", "l1", "l2", "oracle", "approx", "verify")
METHODS = (("tbvp", "SolutionField", "u"),)

# name -> unit; every name is emitted by every traced run
PER_LAYER = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.csv_write_s": "s",
    "cli.csv_read_s": "s",
    "cli.csv_bytes_written": "count",
    "functions.from_samples_s": "s",
    "tbvp.shift_sequence_s": "s",
    "tbvp.extend_input_s": "s",
    "tbvp.full_norm_s": "s",
    "tbvp.dalembert_s": "s",
    "l1.order_envelopes_s": "s",
    "l1.construct_h_s": "s",
    "l2.l2_minimizer_s": "s",
    "verify.verify_solution_s": "s",
    "verify.field_points": "count",
    "verify.us_per_point": "us",
    "oracle.l1_oracle_s": "s",
    "oracle.l1_iterations": "count",
    "oracle.l2_oracle_s": "s",
    "oracle.l2_iterations": "count",
    "oracle.us_per_iteration": "us",
    "oracle.converged_ratio": "ratio",
    "approx.pms_sequence_s": "s",
    "approx.approximate_c1_s": "s",
    "approx.degree_max": "count",
    "approx.degree_sum": "count",
    "approx.retries": "count",
    "approx.satisfied_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}

# metric -> span whose summed inclusive time it reports
INCLUSIVE = {
    "functions.from_samples_s": "functions.from_samples",
    "tbvp.shift_sequence_s": "tbvp.shift_sequence",
    "tbvp.extend_input_s": "tbvp.extend_input",
    "tbvp.full_norm_s": "tbvp.full_norm",
    "tbvp.dalembert_s": "tbvp.dalembert",
    "l1.order_envelopes_s": "l1.order_envelopes",
    "l1.construct_h_s": "l1.construct_h",
    "l2.l2_minimizer_s": "l2.l2_minimizer",
    "verify.verify_solution_s": "verify.verify_solution",
    "oracle.l1_oracle_s": "oracle.l1_oracle",
    "oracle.l2_oracle_s": "oracle.l2_oracle",
    "approx.pms_sequence_s": "approx.pms_sequence",
    "approx.approximate_c1_s": "approx.approximate_c1",
}


def _count_oracle(norm):
    def hook(counts, args, result):
        counts[f"{norm}_runs"] += 1
        counts[f"{norm}_iterations"] += int(result.iterations)
        counts["converged"] += bool(result.converged)
    return hook


def _count_approx(counts, args, result):
    counts["approx_runs"] += 1
    counts["degree_sum"] += int(result.stages["m"])
    counts["degree_max"] = max(counts["degree_max"], int(result.stages["m"]))
    counts["retries"] += int(result.stages["retries"])


def _count_pms(counts, args, result):
    counts["pms_entries"] += len(result)
    counts["pms_satisfied"] += sum(bool(e.satisfied) for e in result)


def _count_points(counts, args, result):
    _, t, x = args[:3]
    counts["field_points"] += int(np.broadcast(np.asarray(t), np.asarray(x)).size)


HOOKS = {
    "oracle.l1_oracle": _count_oracle("l1"),
    "oracle.l2_oracle": _count_oracle("l2"),
    "approx.approximate_c1": _count_approx,
    "approx.pms_sequence": _count_pms,
    "tbvp.SolutionField.u": _count_points,
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, parent index, start, end, request index]
        self.counts = Counter()
        self._stack = []

    def reset(self):
        self.spans, self.counts, self._stack = [], Counter(), []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            request = self.spans[parent][4] if parent >= 0 else idx
            span = [name, parent, time.perf_counter(), 0.0, request]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions everywhere they are bound; undo on exit."""
        mods = {layer: importlib.import_module(f"waveinput.{layer}") for layer in LAYERS}
        swap = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    swap[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "waveinput"]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap and swap[id(obj)][0] is obj:
                    setattr(mod, attr, swap[id(obj)][1])
                    patched.append((mod, attr, obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
            patched.append((cls, meth, fn))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(patched):
                setattr(owner, attr, obj)


def _span_times(spans):
    """Per span name: (inclusive seconds, self seconds); per layer: self seconds."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, self_t, layer_self = {}, {}, {}
    for (name, _, start, end, _), c in zip(spans, child):
        dur = end - start
        incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - c
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - c
    return incl, self_t, layer_self


def layer_metrics(spans, counts, csv_bytes: int) -> dict:
    """Per-layer numbers of one traced pass (interp/import/overhead added by the caller)."""
    incl, self_t, layer_self = _span_times(spans)
    c = Counter(counts)
    i = lambda name: incl.get(name, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    oracle_s = i("oracle.l1_oracle") + i("oracle.l2_oracle")
    out = {
        "cli.csv_write_s": self_t.get("cli.cmd_solve", 0.0) + self_t.get("cli.cmd_pms", 0.0),
        "cli.csv_read_s": self_t.get("cli.cmd_verify", 0.0),
        "cli.csv_bytes_written": csv_bytes,
        "verify.field_points": c["field_points"],
        "verify.us_per_point": 1e6 * ratio(i("verify.verify_solution"), c["field_points"]),
        "oracle.l1_iterations": c["l1_iterations"],
        "oracle.l2_iterations": c["l2_iterations"],
        "oracle.us_per_iteration": 1e6 * ratio(oracle_s, c["l1_iterations"] + c["l2_iterations"]),
        "oracle.converged_ratio": ratio(c["converged"], c["l1_runs"] + c["l2_runs"]),
        "approx.degree_max": c["degree_max"],
        "approx.degree_sum": c["degree_sum"],
        "approx.retries": c["retries"],
        "approx.satisfied_ratio": ratio(c["pms_satisfied"], c["pms_entries"]),
    }
    out.update({metric: i(span) for metric, span in INCLUSIVE.items()})
    out.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS})
    return out


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
