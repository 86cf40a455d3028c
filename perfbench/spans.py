"""Spans around the public functions of tpaopt's layers, recorded from outside.

Every target is a module attribute that the program resolves at call time,
so replacing it with a timing wrapper sees every call. Names bound by
``from ... import`` are patched in the module that imports them (for example
``absorption.integrate`` is the quadrature layer as the absorption layer
calls it). Each span records its name, start, end and parent; self time is
the span's duration minus the time its child spans cover.
"""

import statistics
import time
from array import array

import numpy as np

from tpaopt import absorption, coherent, optimize, sweeps

# (module, attribute, span name)
TARGETS = (
    (absorption, "pf_max_over_t", "absorption.pf_max_over_t"),
    (absorption, "excitation_curve", "absorption.excitation_curve"),
    (absorption, "curve_amplitudes", "absorption.curve_amplitudes"),
    (absorption, "decayed_inner", "absorption.decayed_inner"),
    (absorption, "gl_panels", "absorption.gl_panels"),
    (absorption, "subdivide", "absorption.subdivide"),
    (absorption, "residence_time", "absorption.residence_time"),
    (absorption, "pf_at", "absorption.pf_at"),
    (absorption, "pf_inner_product", "absorption.pf_inner_product"),
    (absorption, "integrate", "quadrature.integrate"),
    (optimize, "optimize_pulse", "optimize.optimize_pulse"),
    (sweeps, "optimize_pulse", "optimize.optimize_pulse"),
    (optimize, "nelder_mead", "optimize.nelder_mead"),
    (coherent, "pf_max_coherent", "coherent.pf_max_coherent"),
    (coherent, "solve_ivp", "coherent.solve_ivp"),
    (sweeps, "ratio_sweep", "sweeps.ratio_sweep"),
    (sweeps, "detuning_map", "sweeps.detuning_map"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# per-layer metrics beyond <span>.calls/.s/.self_s, with their units
DERIVED_UNITS = {
    "absorption.decayed_inner.nodes": "count",
    "absorption.decayed_inner.ns_per_node": "ns",
    "absorption.refine_calls_per_max": "calls",
    "quadrature.integrate.nodes": "count",
    "optimize.nm_evals": "count",
    "optimize.objective_evals": "count",
    "optimize.objective_evals_per_nm_eval": "ratio",
    "optimize.starts": "count",
    "optimize.evals_per_start_p50": "count",
    "optimize.unconverged_starts": "count",
    "optimize.starts_at_best_ratio": "ratio",
    "coherent.rhs_calls": "count",
    "coherent.us_per_rhs_call": "us",
    "sweeps.cells": "count",
    "sweeps.resonant_s": "s",
    "trace.overhead_s": "s",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
        units[name + ".self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")   # an ancestor span has the same name
        self.work = array("q")     # nodes evaluated, where counted
        self.stack = []
        self.depth = [0] * len(SPAN_NAMES)
        self.optimizations = []    # per optimize_pulse: (p_max, starts)
        self.nfev = 0
        self.cells = 0
        self._saved = []

    def __enter__(self):
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _counted(self, f, span):
        def integrand(x):
            self.work[span] += np.size(x)
            return f(x)
        return integrand

    def _wrap(self, fn, name):
        nid = self.index[name]

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.nested.append(self.depth[nid] > 0)
            self.work.append(0)
            if name == "quadrature.integrate":
                args = (self._counted(args[0], i),) + args[1:]
            elif name == "absorption.decayed_inner":
                self.work[i] = np.size(args[2])
            self.stack.append(i)
            self.depth[nid] += 1
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self.stack.pop()
                self.depth[nid] -= 1
            self._record(name, out)
            return out

        return traced

    def _record(self, name, out):
        if name == "optimize.optimize_pulse":
            self.optimizations.append((out.p_max, out.starts))
        elif name == "coherent.solve_ivp":
            self.nfev += out.nfev
        elif name in ("sweeps.ratio_sweep", "sweeps.detuning_map"):
            self.cells += len(out.cells)

    def arrays(self):
        return {"names": np.array(SPAN_NAMES), "name": np.array(self.name),
                "parent": np.array(self.parent), "start": np.array(self.start),
                "end": np.array(self.end), "work": np.array(self.work)}

    def metrics(self):
        """Per-layer metric values (without trace.overhead_s)."""
        name = np.array(self.name, dtype=int)
        parent = np.array(self.parent, dtype=int)
        dur = np.array(self.end) - np.array(self.start)
        nested = np.array(self.nested, dtype=bool)
        work = np.array(self.work, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_time = dur - child
        n = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name[~nested], weights=dur[~nested], minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[span + ".calls"] = int(calls[i])
            out[span + ".s"] = float(total[i])
            out[span + ".self_s"] = float(own[i])

        ix = self.index
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        is_kernel = name == ix["absorption.decayed_inner"]
        nodes = float(work[is_kernel].sum())
        out["absorption.decayed_inner.nodes"] = int(nodes)
        out["absorption.decayed_inner.ns_per_node"] = (
            1e9 * float(dur[is_kernel].sum()) / nodes if nodes else 0.0)
        maxima = calls[ix["absorption.pf_max_over_t"]] + calls[ix["absorption.excitation_curve"]]
        refine = np.count_nonzero(is_kernel & (parent_name != ix["absorption.curve_amplitudes"]))
        out["absorption.refine_calls_per_max"] = refine / maxima if maxima else 0.0
        out["quadrature.integrate.nodes"] = int(work[name == ix["quadrature.integrate"]].sum())

        starts = [s for _, st in self.optimizations for s in st]
        nm_evals = sum(s["n_evals"] for s in starts)
        objective = np.count_nonzero(
            np.isin(name, [ix["absorption.pf_max_over_t"], ix["coherent.pf_max_coherent"]])
            & (parent_name == ix["optimize.nelder_mead"]))
        at_best = sum(1 for p, st in self.optimizations for s in st
                      if s["value"] >= p - 1e-9)
        out["optimize.nm_evals"] = nm_evals
        out["optimize.objective_evals"] = int(objective)
        out["optimize.objective_evals_per_nm_eval"] = objective / nm_evals if nm_evals else 0.0
        out["optimize.starts"] = len(starts)
        out["optimize.evals_per_start_p50"] = (
            statistics.median(s["n_evals"] for s in starts) if starts else 0)
        out["optimize.unconverged_starts"] = sum(not s["converged"] for s in starts)
        out["optimize.starts_at_best_ratio"] = at_best / len(starts) if starts else 0.0

        solve_s = out["coherent.solve_ivp.s"]
        out["coherent.rhs_calls"] = self.nfev
        out["coherent.us_per_rhs_call"] = 1e6 * solve_s / self.nfev if self.nfev else 0.0

        # the serial resonant optimization is each map's first optimize_pulse
        resonant = 0.0
        maps = np.flatnonzero(name == ix["sweeps.detuning_map"])
        opt = name == ix["optimize.optimize_pulse"]
        for m in maps:
            kids = np.flatnonzero(opt & (parent == m))
            if kids.size:
                resonant += float(dur[kids[0]])
        out["sweeps.cells"] = self.cells
        out["sweeps.resonant_s"] = resonant
        return out
