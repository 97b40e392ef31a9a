"""Spans around the package's module-level functions, for the traced run.

``Tracer.installed()`` replaces each target function on every relubound
module that binds it, names bound by ``from ... import`` included, with a
wrapper that records a span, and puts the originals back on exit. A span
is ``[name, start, end, parent index, item index, info]``; spans stay in
memory and ``layer_metrics`` turns one pass's spans into per-layer numbers.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# Deepest network any workload enumerates; per-layer figures run 1..MAX_DEPTH.
MAX_DEPTH = 3


def _lp_info(args, result):
    """(rows, status, t* > 0, largest numerator or denominator bit length)."""
    status, value, solution = result
    bits = 0
    if solution is not None:
        for x in [value, *solution]:
            if isinstance(x, Fraction):
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return len(args[1]), status, value is not None and value > 0, bits


# (module, function, info from (args, result) kept on the span)
TARGETS = (
    ("simplex", "solve_max", _lp_info),
    ("simplex", "_pivot", None),
    ("empirical", "enumerate_regions", lambda args, result: result.count),
    ("empirical", "_expand_region", lambda args, result: (len(args[0].prefix) + 1, len(result))),
    ("empirical", "verify_network", None),
    ("empirical", "load_network", None),
    ("cli", "main", None),
    ("bound_matrices", "build_bound_matrix", None),
    ("bound_matrices", "evaluate_bound", None),
    ("bound_matrices", "serra_sum", None),
    ("transition", "phi", None),
    ("transition", "compose_bound_histogram", None),
    ("decomposition", "power_B", None),
    ("decomposition", "closed_form_norm", None),
)

LAYER_UNITS = {"regions_in": "count", "regions_out": "count", "lps": "count", "s": "s"}

# Every per-layer metric with its unit, in report order.
METRIC_UNITS = {
    "simplex.lp_calls": "count",
    "simplex.busy_s": "s",
    "simplex.ms_per_lp": "ms",
    "simplex.rows_per_lp": "count",
    "simplex.phase1_infeasible": "count",
    "simplex.pivots": "count",
    "simplex.pivots_per_lp": "count",
    "simplex.us_per_pivot": "us",
    "simplex.max_bits": "bits",
    "empirical.lp_per_region": "count",
    "empirical.lp_useful_frac": "ratio",
    "empirical.self_s": "s",
    **{f"empirical.layer{n}.{key}": unit
       for n in range(1, MAX_DEPTH + 1) for key, unit in LAYER_UNITS.items()},
    "empirical.verify_s": "s",
    "empirical.load_s": "s",
    "cli.self_s": "s",
    "bound_matrices.build_calls": "count",
    "bound_matrices.build_s": "s",
    "bound_matrices.evaluate_self_s": "s",
    "bound_matrices.serra_s": "s",
    "transition.phi_calls": "count",
    "transition.phi_s": "s",
    "transition.compose_s": "s",
    "decomposition.power_B_s": "s",
    "decomposition.closed_form_s": "s",
    "proc.cpu_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans while ``installed()`` is active; ``item`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "relubound" or name.startswith("relubound.")]
        saved = []
        try:
            for module, attr, info in TARGETS:
                fn = getattr(sys.modules[f"relubound.{module}"], attr)
                wrapper = self._wrap(f"{module}.{attr}", fn, info)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            saved.append((m, key, fn))
                            setattr(m, key, wrapper)
            yield self
        finally:
            for m, key, fn in reversed(saved):
                setattr(m, key, fn)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one pass, keyed like METRIC_UNITS (without proc./trace.)."""
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] >= 0:
            covered[s[3]] += dur[i]

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def self_time(name):
        return sum(dur[i] - covered[i] for i in by_name[name])

    def under(name, parent):
        return sum(dur[i] for i in by_name[name]
                   if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent)

    lps = [spans[i][5] for i in by_name["simplex.solve_max"]]
    lp_calls = len(lps)
    busy = total("simplex.solve_max")
    pivots = len(by_name["simplex._pivot"])
    regions = sum(spans[i][5] for i in by_name["empirical.enumerate_regions"])
    out = {
        "simplex.lp_calls": lp_calls,
        "simplex.busy_s": busy,
        "simplex.ms_per_lp": 1e3 * _ratio(busy, lp_calls),
        "simplex.rows_per_lp": _ratio(sum(lp[0] for lp in lps), lp_calls),
        "simplex.phase1_infeasible": sum(lp[1] == "infeasible" for lp in lps),
        "simplex.pivots": pivots,
        "simplex.pivots_per_lp": _ratio(pivots, lp_calls),
        "simplex.us_per_pivot": 1e6 * _ratio(total("simplex._pivot"), pivots),
        "simplex.max_bits": max((lp[3] for lp in lps), default=0),
        "empirical.lp_per_region": _ratio(lp_calls, regions),
        "empirical.lp_useful_frac": _ratio(sum(lp[2] for lp in lps), lp_calls),
        # Every LP of these workloads runs inside enumerate_regions.
        "empirical.self_s": total("empirical.enumerate_regions") - busy,
    }
    layers = {(n, key): 0 for n in range(1, MAX_DEPTH + 1) for key in LAYER_UNITS}
    for i in by_name["empirical._expand_region"]:
        n, produced = spans[i][5]
        layers[n, "regions_in"] += 1
        layers[n, "regions_out"] += produced
        layers[n, "s"] += dur[i]
    for i in by_name["simplex.solve_max"]:
        parent = spans[i][3]
        if parent >= 0 and spans[parent][0] == "empirical._expand_region":
            layers[spans[parent][5][0], "lps"] += 1
    out.update({f"empirical.layer{n}.{key}": v for (n, key), v in layers.items()})
    out.update({
        "empirical.verify_s": total("empirical.verify_network")
        - under("empirical.enumerate_regions", "empirical.verify_network"),
        "empirical.load_s": total("empirical.load_network"),
        "cli.self_s": self_time("cli.main"),
        "bound_matrices.build_calls": len(by_name["bound_matrices.build_bound_matrix"]),
        "bound_matrices.build_s": total("bound_matrices.build_bound_matrix"),
        "bound_matrices.evaluate_self_s": self_time("bound_matrices.evaluate_bound"),
        "bound_matrices.serra_s": total("bound_matrices.serra_sum"),
        "transition.phi_calls": len(by_name["transition.phi"]),
        "transition.phi_s": total("transition.phi"),
        "transition.compose_s": total("transition.compose_bound_histogram"),
        "decomposition.power_B_s": total("decomposition.power_B"),
        "decomposition.closed_form_s": total("decomposition.closed_form_norm"),
    })
    return out
