"""Sweep datasets: probability-vs-ratio curves, sensitivity and detuning maps.

Grids are embarrassingly parallel over cells; every cell's seeds are fixed
in advance (family heuristics plus the resonant-cell optimum), so results
are bitwise independent of evaluation order and worker count. While a
worker pool runs (``jobs`` > 1), the OpenBLAS builds bundled with scipy and
numpy run one thread in every process, the forked workers included:
L-BFGS-B calls into BLAS on every iteration, and helper threads that wait
for a core the other workers hold slow each call down. The caller's thread
counts are restored once the pool has closed.
"""

import ctypes
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Atom
from .optimize import (OptimizationProblem, _encode, _encoded_box, _objective,
                       _param_names, _scales, build_state, default_starts,
                       lbfgs_trust, max_over_time, optimize_pulse)
from .states import schmidt_analytic


@dataclass(frozen=True)
class GridResult:
    """Scalar results on a (1- or 2-axis) grid with per-cell metadata."""

    axes: tuple
    values: np.ndarray
    cells: list  # one dict per value, in the values' C order
    meta: dict


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
    family, ratio, w1, w2, mu_frozen = args
    atom = Atom(ratio, 1.0)
    problem = OptimizationProblem(atom, family, mu_free=True)
    names = _param_names(problem)  # the two widths, then the delay

    if len(names) < 3:  # without a delay, nothing to climb
        state = build_state(problem, dict(zip(names, (w1, w2))))
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


def sensitivity_map(atom: Atom, family, axis1, axis2, seed=0, jobs=1):
    """p_max over a width x width grid with the delay re-optimized in every
    cell, climbing from the global optimum's delay among others."""
    ratio = atom.gamma_e / atom.gamma_f
    problem = OptimizationProblem(atom, family, mu_free=True, seed=seed)
    base = optimize_pulse(problem)
    n1, n2, *delay = _param_names(problem)
    mu_opt = base.params[delay[0]] if delay else 0.0
    tasks = [(family, ratio, w1, w2, mu_opt)
             for w1 in axis1 for w2 in axis2]
    cells = _run(tasks, _sensitivity_cell, jobs)
    values = np.array([c["p_max"] for c in cells]).reshape(len(axis1), len(axis2))
    return GridResult(
        axes=((n1, np.asarray(axis1, dtype=float)),
              (n2, np.asarray(axis2, dtype=float))),
        values=values, cells=cells,
        meta={"family": family, "global_optimum": base.params,
              "global_p_max": base.p_max, "seed": seed})


# ---------------------------------------------------------------------------
# detuning maps
# ---------------------------------------------------------------------------

def _detuning_cell(args):
    family, ratio, d1, d2, seed, n_starts, warm = args
    atom = Atom(ratio, 1.0, d1, d2)
    problem = OptimizationProblem(atom, family, seed=seed,
                                  n_starts=n_starts, max_evals=1200)
    starts = [warm] + default_starts(problem)[:max(n_starts - 1, 1)]
    res = optimize_pulse(problem, starts=starts)
    return {"delta1": d1, "delta2": d2, "p_max": res.p_max,
            "params": res.params, "converged": res.converged}


def detuning_map(family, gamma_ratio, delta1_values, delta2_values,
                 seed=0, n_starts=4, jobs=1):
    """p_max with pulse parameters, the delay included, fully re-optimized at
    fixed detunings.

    Every cell is warm-started from the resonant optimum (plus the standard
    heuristic seeds), keeping cells independent so the grid is deterministic
    under any parallel schedule.
    """
    problem = OptimizationProblem(Atom(gamma_ratio, 1.0), family, seed=seed)
    resonant = optimize_pulse(problem)
    tasks = [(family, gamma_ratio, d1, d2, seed, n_starts, resonant.params)
             for d1 in delta1_values for d2 in delta2_values]
    cells = _run(tasks, _detuning_cell, jobs)
    values = np.array([c["p_max"] for c in cells]).reshape(
        len(delta1_values), len(delta2_values))
    return GridResult(
        axes=(("delta1_over_gamma_f", np.asarray(delta1_values, dtype=float)),
              ("delta2_over_gamma_f", np.asarray(delta2_values, dtype=float))),
        values=values, cells=cells,
        meta={"family": family, "gamma_ratio": gamma_ratio,
              "mu_free": True, "resonant_p_max": resonant.p_max,
              "resonant_params": resonant.params, "seed": seed})


def _blas_pools():
    """(get, set) thread-count functions of the loaded OpenBLAS builds from
    the scipy and numpy wheels; a library or symbol not found is skipped."""
    pools = []
    for pkg, suffix in (("scipy", ""), ("numpy", "64_")):
        libs = Path(sys.modules[pkg].__file__).parents[1] / f"{pkg}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
    return pools


@contextmanager
def _one_blas_thread():
    """The loaded OpenBLAS builds run one thread inside the block; the
    caller's counts come back after it."""
    pools = _blas_pools()
    counts = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(pools, counts):
            set_threads(n)


def _run(tasks, fn, jobs):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    # one thread before the fork, so the workers inherit it
    with _one_blas_thread(), ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
