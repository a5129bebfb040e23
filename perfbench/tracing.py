"""Spans around the library's public functions, recorded from outside.

`Tracer.install()` replaces every public function of the library's modules
with a wrapper, in every module that binds it, so a call is caught whichever
name the caller resolves (`cli.ripr_solve`, `evariables.ripr_solve` and
`diagnostics.ripr_solve` all reach one wrapper). A span is named after the
module that defines the function. `uninstall()` puts the originals back. No
library source is changed.

Spans stay in memory as tuples (id, name, start, end, parent, op id,
counters) and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

import numpy as np

PACKAGE = "maxent_evalues"
LAYERS = ("cli", "table_io", "models", "priors", "numerics", "evariables", "diagnostics")
ATOM_FLOOR = 1e-6


_signature = functools.cache(inspect.signature)


def _bound(fn, args, kwargs):
    ba = _signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Counters per span name, read from the arguments and the result of a call.
def _ripr(fn, args, kwargs, result):
    return {"iterations": result.iterations,
            "atoms": int((np.exp(result.log_weights) > ATOM_FLOOR).sum()),
            "unconverged": int(not result.converged),
            "kl": result.achieved_kl}


def _e_power(fn, args, kwargs, result):
    pmfs = _bound(fn, args, kwargs)["group_pmfs"]
    return {"terms": math.prod(p.support_size for p in pmfs)}


def _pseudo_density(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    sizes = list(a["sizes"])
    points = a["scale"] * sum(sizes) + 1
    group_points = sum(a["scale"] * n + 1 for n in sizes)
    return {"points": points, "bytes_computed": 8 * (group_points + points),
            "kept": result.density.grid.size}


def _log_w_pseudo0(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    density = a["density"]
    grid = getattr(density, "density", density).grid.size
    return {"cells": int(np.size(a["n1"])) * grid}


def _worst_case(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    lo, hi = a["bounds"]
    step = a["grid_step"]
    axis = np.arange(lo, hi + step / 2, step).size
    return {"leaves": axis ** len(list(a["sizes"]))}


def _convolve(fn, args, kwargs, result):
    from maxent_evalues.numerics import FFT_THRESHOLD

    a = _bound(fn, args, kwargs)
    points = a["a"].support_size + a["b"].support_size - 1
    return {"points": points, "fft_calls": int(points > FFT_THRESHOLD)}


def _network(fn, args, kwargs, result):
    return {"edges": len(_bound(fn, args, kwargs)["net"].edges)}


COUNTERS = {
    "evariables.ripr_solve": _ripr,
    "evariables.e_power": _e_power,
    "priors.pseudo_null_density": _pseudo_density,
    "evariables.log_w_pseudo0": _log_w_pseudo0,
    "diagnostics.worst_case_r_prime": _worst_case,
    "numerics.convolve": _convolve,
    "table_io.network_to_table": _network,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._saved = []  # (module, attribute, original)
        self.op_id = None

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counter = COUNTERS.get(name) if ok else None
            extra = counter(fn, args, kwargs, result) if counter else None
            self.spans.append((sid, name, start, end, parent, self.op_id, extra))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        modules.append(importlib.import_module(PACKAGE))
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith(PACKAGE + "."):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(f"{home[len(PACKAGE) + 1:]}.{value.__name__}", value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    child = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: end - start - child[sid] for sid, _, start, end, _, _, _ in spans}


# Per-layer metrics: name -> unit. Counters are summed over calls unless the
# name says otherwise; "computed" counters come from array shapes, not from
# measuring memory.
CALLS_AND_SELF = (
    "evariables.ripr_solve", "evariables.e_power", "evariables.log_e_gro_mic",
    "evariables.log_e_gro_can", "evariables.log_e_gro_point", "evariables.log_e_pseudo",
    "priors.pseudo_null_density", "evariables.log_w_pseudo0", "diagnostics.gap_r",
    "diagnostics.gap_r_prime", "diagnostics.worst_case_r_prime", "numerics.convolve",
    "priors.induced_group_pmf", "priors.null_optimal_prior",
)
SELF_ONLY = ("table_io.parse_table", "table_io.network_to_table", "cli.main")
SUMMED = {
    "evariables.e_power.terms": "count",
    "priors.pseudo_null_density.points": "count",
    "priors.pseudo_null_density.bytes_computed": "bytes",
    "evariables.log_w_pseudo0.cells": "count",
    "diagnostics.worst_case_r_prime.leaves": "count",
    "numerics.convolve.fft_calls": "count",
    "numerics.convolve.points": "count",
    "table_io.network_to_table.edges": "count",
    "evariables.ripr_solve.iterations": "count",
    "evariables.ripr_solve.unconverged": "count",
}


def metric_units() -> dict:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update(SUMMED)
    units.update({
        "evariables.ripr_solve.iterations_max": "count",
        "evariables.ripr_solve.atoms": "count",
        "evariables.ripr_solve.kl_max": "nats",
        "priors.pseudo_null_density.kept_ratio": "ratio",
        "trace.overhead_frac": "ratio",
        "trace.spans": "count",
    })
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    return units


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Every per-layer metric, zero where the layer did not run."""
    values = dict.fromkeys(metric_units(), 0.0)
    selfs = self_times(spans)
    ripr = []
    kept = 0
    for sid, name, _, _, _, _, extra in spans:
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            values[f"layer.{layer}.self_s"] += selfs[sid]
        if f"{name}.calls" in values:
            values[f"{name}.calls"] += 1
        if f"{name}.self_s" in values:
            values[f"{name}.self_s"] += selfs[sid]
        if extra is None:  # the call raised, or the function has no counters
            continue
        for key, v in extra.items():
            if f"{name}.{key}" in SUMMED:
                values[f"{name}.{key}"] += v
        if name == "evariables.ripr_solve":
            ripr.append(extra)
        elif name == "priors.pseudo_null_density":
            kept += extra["kept"]
    if ripr:
        values["evariables.ripr_solve.iterations_max"] = max(r["iterations"] for r in ripr)
        values["evariables.ripr_solve.atoms"] = sum(r["atoms"] for r in ripr) / len(ripr)
        values["evariables.ripr_solve.kl_max"] = max(r["kl"] for r in ripr)
    points = values["priors.pseudo_null_density.points"]
    if points:
        values["priors.pseudo_null_density.kept_ratio"] = kept / points
    values["trace.overhead_frac"] = overhead_frac
    values["trace.spans"] = len(spans)
    return values


def spans_to_json(spans) -> dict:
    return {
        "columns": ["id", "name", "start", "end", "parent", "op", "counters"],
        "rows": [list(s) for s in spans],
    }
