"""Sweep datasets: probability-vs-ratio curves, sensitivity and detuning maps.

Grids are embarrassingly parallel over cells; every cell's seeds are fixed
in advance (family heuristics plus the resonant-cell optimum), so results
are bitwise independent of evaluation order and worker count.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import Atom
from .optimize import (OptimizationProblem, _encode, _encoded_box, _objective,
                       _param_names, _scales, build_state, default_starts,
                       lbfgs_trust, max_over_time, optimize_pulse)
from .states import schmidt_analytic


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


@dataclass(frozen=True)
class GridResult:
    """Scalar results on a (1- or 2-axis) grid with per-cell metadata."""

    axes: tuple
    values: np.ndarray
    cells: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_csv(self, path, extra_comments=()):
        lines = [f"# {c}" for c in extra_comments]
        names = [a[0] for a in self.axes]
        lines.append(",".join(names + ["value", "converged"]))
        it = np.ndindex(self.values.shape)
        for idx in it:
            coords = [self.axes[d][1][idx[d]] for d in range(len(self.axes))]
            cell = self.cells[np.ravel_multi_index(idx, self.values.shape)] if self.cells else {}
            conv = cell.get("converged", True)
            lines.append(",".join(
                [f"{c}" for c in coords]
                + [f"{self.values[idx]:.12g}", str(bool(conv))]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path, extra_meta=None):
        doc = {"axes": [{"name": n, "values": _jsonable(list(v))} for n, v in self.axes],
               "values": _jsonable(self.values),
               "cells": _jsonable(self.cells),
               "meta": _jsonable({**self.meta, **(extra_meta or {})})}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)


# ---------------------------------------------------------------------------
# ratio sweeps
# ---------------------------------------------------------------------------

def _ratio_cell(args):
    family, ratio, mu_free, seed, n_starts = args
    atom = Atom(ratio, 1.0)
    problem = OptimizationProblem(atom, family, mu_free=mu_free,
                                  seed=seed, n_starts=n_starts)
    res = optimize_pulse(problem)
    cell = {"ratio": ratio, "mu_free": mu_free, "p_max": res.p_max,
            "params": res.params, "t_at_max": res.t_at_max,
            "converged": res.converged}
    if family == "entangled_gaussian":
        cell["entropy_bits"] = schmidt_analytic(build_state(problem, res.params)).entropy_bits
    return cell


def ratio_sweep(family, ratios, delay_policies=("mu_free", "mu_zero"),
                seed=0, n_starts=8, jobs=1):
    """Optimized p_max per lifetime ratio, one column per delay policy."""
    ratios = list(ratios)
    tasks = [(family, r, pol == "mu_free", seed, n_starts)
             for r in ratios for pol in delay_policies]
    cells = _run(tasks, _ratio_cell, jobs)
    values = np.array([c["p_max"] for c in cells]).reshape(
        len(ratios), len(delay_policies))
    return GridResult(
        axes=(("gamma_e_over_gamma_f", np.asarray(ratios, dtype=float)),
              ("delay_policy", list(delay_policies))),
        values=values, cells=cells,
        meta={"family": family, "seed": seed})


# ---------------------------------------------------------------------------
# sensitivity maps over the two spectral widths
# ---------------------------------------------------------------------------

def _sensitivity_cell(args):
    family, ratio, w1, w2, policy, mu_frozen = args
    atom = Atom(ratio, 1.0)
    problem = OptimizationProblem(atom, family, mu_free=True)
    names = _param_names(problem)  # the two widths, then the delay

    if policy == "frozen" or len(names) < 3:  # without a delay, nothing to climb
        state = build_state(problem, dict(zip(names, (w1, w2, mu_frozen))))
        return {"p_max": max_over_time(problem, state)[1], "mu": mu_frozen,
                "converged": True}
    # re-optimize the delay at fixed widths: climb its coordinate alone
    evaluate = _objective(problem)
    widths = _encode(problem, dict(zip(names, (w1, w2, mu_frozen))))[:-1]
    lo, hi = _encoded_box(problem)
    radius = 2.0 * _scales(problem)

    def fg(delay):
        neg_p, _, neg_grad = evaluate(np.append(widths, delay))
        return neg_p, neg_grad[-1:]

    best = (-np.inf, 0.0, False)
    for mu0 in (mu_frozen, 1.0 / atom.gamma_e, 0.0):
        x, fx, _, conv, _ = lbfgs_trust(fg, [mu0], lo[-1:], hi[-1:], radius[-1:], 220)
        if -fx > best[0]:
            best = (-fx, float(x[0]), conv)
    return {"p_max": best[0], "mu": best[1], "converged": best[2]}


def sensitivity_map(atom: Atom, family, axis1, axis2, delay_policy="reoptimize",
                    seed=0, jobs=1):
    """p_max over a width x width grid with the delay re-optimized or frozen.

    The frozen policy pins the delay at the global optimum's value; the
    default policy re-optimizes it in every cell.
    """
    ratio = atom.gamma_e / atom.gamma_f
    problem = OptimizationProblem(atom, family, mu_free=True, seed=seed)
    base = optimize_pulse(problem)
    n1, n2, *delay = _param_names(problem)
    mu_opt = base.params[delay[0]] if delay else 0.0
    tasks = [(family, ratio, w1, w2, delay_policy, mu_opt)
             for w1 in axis1 for w2 in axis2]
    cells = _run(tasks, _sensitivity_cell, jobs)
    values = np.array([c["p_max"] for c in cells]).reshape(len(axis1), len(axis2))
    return GridResult(
        axes=((n1, np.asarray(axis1, dtype=float)),
              (n2, np.asarray(axis2, dtype=float))),
        values=values, cells=cells,
        meta={"family": family, "delay_policy": delay_policy,
              "global_optimum": _jsonable(base.params),
              "global_p_max": base.p_max, "seed": seed})


# ---------------------------------------------------------------------------
# detuning maps
# ---------------------------------------------------------------------------

def _detuning_cell(args):
    family, ratio, d1, d2, mu_free, seed, n_starts, warm = args
    atom = Atom(ratio, 1.0, d1, d2)
    problem = OptimizationProblem(atom, family, mu_free=mu_free, seed=seed,
                                  n_starts=n_starts, max_evals=1200)
    starts = default_starts(problem)[:max(n_starts - 1, 1)]
    if warm is not None:
        starts = [warm] + starts
    res = optimize_pulse(problem, starts=starts)
    return {"delta1": d1, "delta2": d2, "p_max": res.p_max,
            "params": res.params, "converged": res.converged}


def detuning_map(family, gamma_ratio, delta1_values, delta2_values,
                 mu_free=True, seed=0, n_starts=4, jobs=1):
    """p_max with pulse parameters fully re-optimized at fixed detunings.

    Every cell is warm-started from the resonant optimum (plus the standard
    heuristic seeds), keeping cells independent so the grid is deterministic
    under any parallel schedule.
    """
    problem = OptimizationProblem(Atom(gamma_ratio, 1.0), family, mu_free=mu_free,
                                  seed=seed)
    resonant = optimize_pulse(problem)
    # a frozen delay is left out of the warm start
    names = _param_names(problem)
    warm = {k: v for k, v in resonant.params.items() if k in names}
    tasks = [(family, gamma_ratio, d1, d2, mu_free, seed, n_starts, warm)
             for d1 in delta1_values for d2 in delta2_values]
    cells = _run(tasks, _detuning_cell, jobs)
    values = np.array([c["p_max"] for c in cells]).reshape(
        len(delta1_values), len(delta2_values))
    return GridResult(
        axes=(("delta1_over_gamma_f", np.asarray(delta1_values, dtype=float)),
              ("delta2_over_gamma_f", np.asarray(delta2_values, dtype=float))),
        values=values, cells=cells,
        meta={"family": family, "gamma_ratio": gamma_ratio,
              "mu_free": mu_free, "resonant_p_max": resonant.p_max,
              "resonant_params": _jsonable(resonant.params), "seed": seed})


def _run(tasks, fn, jobs):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
