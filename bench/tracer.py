"""Per-layer tracing from the benchmark's side of the API.

The traced run wraps public functions and methods of fermifock where
they are bound (every fermifock module namespace that holds them, or the
class), so calls between library modules pass through the wrappers too.
A wrapper records calls, inclusive time and self time (inclusive time
minus the time of wrapped calls nested inside it), plus an optional work
count.  Recording happens only while `active` is set, which the worker
does around each timed op and never around its own checks.
"""
from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute path, work count): "table_terms" counts
# the net growth of series_into's output table (cancellations subtract,
# writes to a key already there add nothing), "out_terms" the terms of the
# returned NOExpr, "window_cells" the width of the y_series window,
# "closed_form_terms" the terms of a closed form, "out_cells" the cells of
# the returned LaurentPoly
TARGETS = [
    ("vertex.series_into", "fermifock.vertex", "series_into", "table_terms"),
    ("vertex.y_series", "fermifock.vertex", "y_series", "window_cells"),
    ("vertex.check_weak_associativity", "fermifock.vertex", "check_weak_associativity", None),
    ("vertex.product_series", "fermifock.vertex", "product_series", None),
    ("vertex.iterate_series", "fermifock.vertex", "iterate_series", None),
    ("fock.FockVector.add", "fermifock.fock", "FockVector.__add__", None),
    ("wick.wick_product", "fermifock.wick", "wick_product", "closed_form_terms"),
    ("wick.wick_iterate", "fermifock.wick", "wick_iterate", "closed_form_terms"),
    ("wick.noexpr_apply", "fermifock.wick", "noexpr_apply", None),
    ("wick.correlation", "fermifock.wick", "correlation", None),
    ("wick.noexpr_mul", "fermifock.wick", "noexpr_mul", "out_terms"),
    ("wick.contraction_det", "fermifock.wick", "contraction_det", None),
    ("ratfun.arith", "fermifock.ratfun", "RationalFunction.__add__", None),
    ("ratfun.arith", "fermifock.ratfun", "RationalFunction.__mul__", None),
    ("ratfun.arith", "fermifock.ratfun", "RationalFunction.scale", None),
    ("ratfun.expand_region", "fermifock.ratfun", "RationalFunction.expand_region", "out_cells"),
    ("delta.t_number", "fermifock.delta", "t_number", None),
    ("delta.exp_delta", "fermifock.delta", "exp_delta", None),
    ("delta.delta_power_over_factorial", "fermifock.delta", "delta_power_over_factorial", None),
    ("straightening.pbw_normal_form", "fermifock.straightening", "pbw_normal_form", None),
    ("cli.main", "fermifock.cli", "main", None),
    ("cli.parse_state", "fermifock.cli", "parse_state", None),
]

# the per-layer metrics the benchmark reports: (name, source field, unit)
LAYER_METRICS = [
    ("vertex.series_into.calls", ("vertex.series_into", "calls"), "count"),
    ("vertex.series_into.self_s", ("vertex.series_into", "self_s"), "s"),
    ("vertex.series_into.out_terms", ("vertex.series_into", "out_terms"), "count"),
    ("vertex.y_series.calls", ("vertex.y_series", "calls"), "count"),
    ("vertex.y_series.window_cells", ("vertex.y_series", "window_cells"), "count"),
    ("vertex.check_weak_associativity.self_s", ("vertex.check_weak_associativity", "self_s"), "s"),
    ("fock.FockVector.add.calls", ("fock.FockVector.add", "calls"), "count"),
    ("fock.FockVector.add.self_s", ("fock.FockVector.add", "self_s"), "s"),
    ("vertex.product_series.s", ("vertex.product_series", "s"), "s"),
    ("vertex.iterate_series.s", ("vertex.iterate_series", "s"), "s"),
    ("wick.wick_product.s", ("wick.wick_product", "s"), "s"),
    ("wick.wick_iterate.s", ("wick.wick_iterate", "s"), "s"),
    ("wick.closed_form_terms", ("wick", "closed_form_terms"), "count"),
    ("wick.noexpr_apply.calls", ("wick.noexpr_apply", "calls"), "count"),
    ("wick.noexpr_apply.self_s", ("wick.noexpr_apply", "self_s"), "s"),
    ("wick.correlation.s", ("wick.correlation", "s"), "s"),
    ("wick.noexpr_mul.calls", ("wick.noexpr_mul", "calls"), "count"),
    ("wick.noexpr_mul.out_terms", ("wick.noexpr_mul", "out_terms"), "count"),
    ("wick.contraction_det.calls", ("wick.contraction_det", "calls"), "count"),
    ("wick.contraction_det.self_s", ("wick.contraction_det", "self_s"), "s"),
    ("ratfun.arith.calls", ("ratfun.arith", "calls"), "count"),
    ("ratfun.arith.self_s", ("ratfun.arith", "self_s"), "s"),
    ("ratfun.expand_region.s", ("ratfun.expand_region", "s"), "s"),
    ("ratfun.expand_region.out_cells", ("ratfun.expand_region", "out_cells"), "count"),
    ("delta.t_number.calls", ("delta.t_number", "calls"), "count"),
    ("delta.t_number.s", ("delta.t_number", "s"), "s"),
    ("delta.exp_delta.s", ("delta.exp_delta", "s"), "s"),
    ("delta.delta_power_over_factorial.s", ("delta.delta_power_over_factorial", "s"), "s"),
    ("straightening.pbw_normal_form.s", ("straightening.pbw_normal_form", "s"), "s"),
    ("cli.main.self_s", ("cli.main", "self_s"), "s"),
    ("cli.parse_state.s", ("cli.parse_state", "s"), "s"),
]


def _table_terms(table) -> int:
    return sum(len(row) for row in table.values())


def _series_into_table(args, kwargs):
    return kwargs["table"] if "table" in kwargs else args[4]


def _y_series_width(args, kwargs):
    lo = kwargs["lo"] if "lo" in kwargs else args[3]
    hi = kwargs["hi"] if "hi" in kwargs else args[4]
    return hi - lo + 1


class Tracer:
    """Aggregated spans per layer: calls, inclusive seconds, self seconds."""

    def __init__(self):
        self.active = False
        self.layers = {}  # prefix -> {"calls", "s", "self_s", counters...}
        self._stack = []  # time spent in wrapped children, one slot per open span

    def _layer(self, prefix):
        return self.layers.setdefault(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def _wrap(self, prefix, fn, counter):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        layer = self._layer(prefix)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter == "table_terms":
                table = _series_into_table(args, kwargs)
                before = _table_terms(table)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                layer["calls"] += 1
                layer["s"] += dt
                layer["self_s"] += dt - child
                if stack:
                    stack[-1] += dt
            if counter == "table_terms":
                layer["out_terms"] = layer.get("out_terms", 0) + _table_terms(table) - before
            elif counter == "out_terms":
                layer["out_terms"] = layer.get("out_terms", 0) + len(out)
            elif counter == "window_cells":
                layer["window_cells"] = layer.get("window_cells", 0) + _y_series_width(args, kwargs)
            elif counter == "closed_form_terms":
                wick = tracer._layer("wick")
                wick["closed_form_terms"] = wick.get("closed_form_terms", 0) + len(out)
            elif counter == "out_cells":
                layer["out_cells"] = layer.get("out_cells", 0) + len(out.coeffs)
            return out

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target inside the fermifock package."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fermifock"]
        for prefix, modname, path, counter in TARGETS:
            owner = sys.modules[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self._wrap(prefix, original, counter)
            if isinstance(owner, type):
                setattr(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def per_layer(self, rounds: int) -> dict:
        """Every layer metric as a mean per round, zero where never called."""
        out = {}
        for name, (prefix, field), unit in LAYER_METRICS:
            total = self.layers.get(prefix, {}).get(field, 0)
            out[name] = {"value": total / rounds, "unit": unit}
        return out
