"""Derivative-free maximization of the excitation probability over pulse shapes.

A hand-rolled Nelder-Mead simplex runs in transformed coordinates (log for
spectral widths, identity for delays) from a deterministic set of multistart
seeds spanning the atomic linewidth scales. Convergence requires both a
relative simplex diameter below 1e-5 and an objective spread below 1e-9;
ties between converged starts are broken toward the lexicographically
smallest parameter vector for reproducibility.
"""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import absorption, coherent
from .model import Atom
from .states import (DecayingExpProduct, EntangledGaussian, GaussianProduct,
                     RisingExpProduct)

WIDTH_BOUNDS = (1e-3, 1e3)   # in gamma_f units
DELAY_BOUNDS = (-50.0, 50.0)  # in units of the slowest lifetime

_FAMILIES = ("gaussian_product", "entangled_gaussian", "rising_exp",
             "decaying_exp", "coherent")


@dataclass(frozen=True)
class OptimizationProblem:
    """Family, constraints, and atom defining one pulse optimization."""

    atom: Atom
    family: str
    mu_free: bool = True          # for decaying_exp this frees t_shift
    n1: float = 1.0               # coherent family only
    n2: float = 1.0
    n_starts: int = 8
    max_evals: int = 2000
    seed: int = 0
    coherent_rtol: float = 1e-7

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    def to_dict(self):
        d = asdict(self)
        d["atom"] = {"gamma_e": self.atom.gamma_e, "gamma_f": self.atom.gamma_f,
                     "delta1": self.atom.delta1, "delta2": self.atom.delta2}
        return d


@dataclass(frozen=True)
class OptimizationResult:
    params: dict
    p_max: float
    t_at_max: float
    n_evaluations: int
    converged: bool
    simplex_diameter: float
    starts: list = field(default_factory=list)

    def to_dict(self):
        return {"params": self.params, "p_max": self.p_max,
                "t_at_max": self.t_at_max, "n_evaluations": self.n_evaluations,
                "converged": self.converged,
                "simplex_diameter": self.simplex_diameter,
                "starts": self.starts}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def nelder_mead(f, x0, steps, diam_tol=1e-5, spread_tol=1e-9, max_evals=2000):
    """Minimize f from x0; returns (x, fx, n_evals, converged, diameter).

    Standard reflection/expansion/contraction/shrink moves; convergence when
    the simplex diameter relative to the centroid scale drops below diam_tol
    and the vertex objective spread below spread_tol.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += steps[i]
        simplex.append(v)
    evals = [0]

    def fe(x):
        evals[0] += 1
        return f(x)

    fvals = [fe(v) for v in simplex]

    def diameter():
        cen = np.mean(simplex, axis=0)
        scale = max(1.0, float(np.max(np.abs(cen))))
        return max(np.linalg.norm(v - simplex[0]) for v in simplex[1:]) / scale

    while evals[0] < max_evals:
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        if diameter() < diam_tol and (fvals[-1] - fvals[0]) < spread_tol:
            return simplex[0], fvals[0], evals[0], True, diameter()
        centroid = np.mean(simplex[:-1], axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = fe(xr)
        if fvals[0] <= fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fex = fe(xe)
            if fex < fr:
                simplex[-1], fvals[-1] = xe, fex
            else:
                simplex[-1], fvals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (simplex[-1] - centroid)
            fc = fe(xc)
            if fc < fvals[-1]:
                simplex[-1], fvals[-1] = xc, fc
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
                fvals = [fvals[0]] + [fe(v) for v in simplex[1:]]
    order = np.argsort(fvals)
    simplex = [simplex[i] for i in order]
    fvals = [fvals[i] for i in order]
    return simplex[0], fvals[0], evals[0], False, diameter()


def _param_names(problem):
    fam, free = problem.family, problem.mu_free
    if fam == "gaussian_product":
        return ("omega1", "omega2") + (("mu",) if free else ())
    if fam == "entangled_gaussian":
        return ("omega_plus", "omega_minus") + (("mu",) if free else ())
    if fam == "rising_exp":
        return ("omega1", "omega2")
    if fam == "decaying_exp":
        return ("omega1", "omega2") + (("t_shift",) if free else ())
    if fam == "coherent":
        return ("omega1", "omega2") + (("mu",) if free else ())
    raise ValueError(fam)


def _is_width(name):
    return name.startswith("omega")


def _encode(problem, params):
    return np.array([math.log(params[n]) if _is_width(n) else params[n]
                     for n in _param_names(problem)])


def _decode(problem, x):
    out = {}
    for name, v in zip(_param_names(problem), x):
        out[name] = math.exp(v) if _is_width(name) else v
    if problem.family in ("gaussian_product", "entangled_gaussian", "coherent"):
        out.setdefault("mu", 0.0)
    if problem.family == "decaying_exp":
        out.setdefault("t_shift", 0.0)
    return out


def build_state(problem, params):
    fam = problem.family
    if fam == "gaussian_product":
        return GaussianProduct(params["omega1"], params["omega2"], params.get("mu", 0.0))
    if fam == "entangled_gaussian":
        return EntangledGaussian(params["omega_plus"], params["omega_minus"],
                                 params.get("mu", 0.0))
    if fam == "rising_exp":
        return RisingExpProduct(params["omega1"], params["omega2"])
    if fam == "decaying_exp":
        return DecayingExpProduct(params["omega1"], params["omega2"],
                                  params.get("t_shift", 0.0))
    if fam == "coherent":
        return coherent.CoherentDrive(problem.n1, problem.n2,
                                      params["omega1"], params["omega2"],
                                      params.get("mu", 0.0))
    raise ValueError(fam)


def max_over_time(problem, obj):
    """(t_at_max, p_max) of a built state or drive; coherent drives are
    integrated to the problem's ``coherent_rtol`` (atol = rtol / 100)."""
    if problem.family == "coherent":
        return coherent.pf_max_coherent(problem.atom, obj, rtol=problem.coherent_rtol,
                                        atol=problem.coherent_rtol * 1e-2)
    return absorption.pf_max_over_t(problem.atom, obj)


def search_box(atom):
    """((width_lo, width_hi), (delay_lo, delay_hi)) searched, in absolute units."""
    gf = atom.gamma_f
    # optimal delays scale with the slowest lifetime (mu* ~ 1/gamma_e)
    slow = min(atom.gamma_e, gf)
    return ((WIDTH_BOUNDS[0] * gf, WIDTH_BOUNDS[1] * gf),
            (DELAY_BOUNDS[0] / slow, DELAY_BOUNDS[1] / slow))


def _objective(problem):
    """Maximized-over-time probability as a cached function of parameters."""
    (wlo, whi), (dlo, dhi) = search_box(problem.atom)
    names = _param_names(problem)
    cache = {}

    def evaluate(x):
        key = tuple(np.round(x, 12))
        if key in cache:
            return cache[key]
        penalty = 0.0
        for name, v in zip(names, x):
            if _is_width(name):
                if not (math.log(wlo) <= v <= math.log(whi)):
                    penalty += abs(v - np.clip(v, math.log(wlo), math.log(whi)))
            else:
                if not (dlo <= v <= dhi):
                    penalty += abs(v - np.clip(v, dlo, dhi))
        if penalty > 0:
            cache[key] = (2.0 + penalty, 0.0)
            return cache[key]
        tm, pm = max_over_time(problem, build_state(problem, _decode(problem, x)))
        cache[key] = (-pm, tm)
        return cache[key]

    return evaluate


def default_starts(problem):
    """Deterministic seed parameter sets spanning the linewidth scales."""
    ge, gf = problem.atom.gamma_e, problem.atom.gamma_f
    fam = problem.family
    if fam == "entangled_gaussian":
        s_plus, s_minus = gf, gf + 2.0 * ge
        widths = [(0.5 * s_plus, 0.5 * s_minus), (s_plus, s_minus),
                  (s_plus, 2.0 * s_minus), (2.0 * s_plus, 2.0 * s_minus)]
    else:
        scales = [0.5 * ge, ge, ge + gf, 2.0 * (ge + gf)]
        widths = [(w, min(w + gf, WIDTH_BOUNDS[1] * gf)) for w in scales]
    if fam == "coherent":
        widths = [(2.4 * ge, 2.4 * gf)] + widths[:3]
    delays = [1.0 / ge, 0.0, 2.0 / ge, 0.5 / ge]
    starts = []
    for i in range(problem.n_starts):
        w1, w2 = widths[i % len(widths)]
        p = {"omega1": w1, "omega2": w2}
        if fam == "entangled_gaussian":
            p = {"omega_plus": w1, "omega_minus": w2}
        if problem.mu_free and fam != "rising_exp":
            key = "t_shift" if fam == "decaying_exp" else "mu"
            p[key] = delays[(i // len(widths)) % len(delays)] if fam != "decaying_exp" \
                else [0.0, 1.0 / ge, 1.0 / gf, 2.0 / ge][(i // len(widths)) % 4]
        starts.append(p)
    clip = lambda w: float(np.clip(w, WIDTH_BOUNDS[0] * gf, WIDTH_BOUNDS[1] * gf))
    for p in starts:
        for k in list(p):
            if _is_width(k):
                p[k] = clip(p[k])
    return starts


def optimize_pulse(problem: OptimizationProblem, starts=None):
    """Multistart simplex search; returns the best converged point.

    Seeds are jittered (log-normally for widths) by the problem seed when it
    is nonzero; results are deterministic for a fixed seed.
    """
    evaluate = _objective(problem)
    if starts is None:
        starts = default_starts(problem)
    rng = np.random.default_rng(problem.seed)
    names = _param_names(problem)
    records = []
    total_evals = 0
    per_start = max(problem.max_evals // max(len(starts), 1), 200)
    for i, p in enumerate(starts):
        x0 = _encode(problem, p)
        if problem.seed != 0 and i > 0:
            jitter = rng.normal(0.0, 0.05, size=x0.size)
            x0 = x0 + jitter
        steps = np.array([0.3 if _is_width(n) else
                          max(0.5 / problem.atom.gamma_e, 0.1 / problem.atom.gamma_f)
                          for n in names])
        x, fx, nev, conv, diam = nelder_mead(
            lambda v: evaluate(v)[0], x0, steps, max_evals=per_start)
        total_evals += nev
        records.append({"start": dict(p), "value": -fx, "converged": conv,
                        "n_evals": nev, "x": x, "diameter": diam})
    best_val = max(r["value"] for r in records)
    near = [r for r in records if r["value"] >= best_val - 1e-9]
    best = min(near, key=lambda r: tuple(r["x"]))
    params = _decode(problem, best["x"])
    neg_p, t_at = evaluate(best["x"])
    starts_out = [{"start": r["start"], "value": r["value"],
                   "converged": r["converged"], "n_evals": r["n_evals"]}
                  for r in records]
    return OptimizationResult(
        params=params, p_max=-neg_p, t_at_max=t_at,
        n_evaluations=total_evals,
        converged=best["converged"],
        simplex_diameter=best["diameter"], starts=starts_out)


def asymptotic_checks(family, ratio_list, mu_free=True, n_starts=8, seed=0,
                      max_evals=2000):
    """Optimize per lifetime ratio and emit normalized parameter columns.

    Ratios should be log-spaced and span the regimes of interest (the
    crossover sits between 1e-2 and 1e2). Rows where the optimizer fails are
    flagged and kept.
    """
    rows = []
    for r in ratio_list:
        atom = Atom(r, 1.0)
        problem = OptimizationProblem(atom, family, mu_free=mu_free,
                                      n_starts=n_starts, seed=seed,
                                      max_evals=max_evals)
        res = optimize_pulse(problem)
        ge, gf = atom.gamma_e, atom.gamma_f
        row = {"ratio": r, "p_max": res.p_max, "t_at_max": res.t_at_max,
               "converged": res.converged}
        p = res.params
        if family in ("gaussian_product", "rising_exp", "decaying_exp"):
            row.update({"omega1": p["omega1"], "omega2": p["omega2"],
                        "omega1_over_ge": p["omega1"] / ge,
                        "omega2_over_gegf": p["omega2"] / (ge + gf)})
            if "mu" in p:
                row["mu_ge"] = p["mu"] * ge
            if "t_shift" in p:
                row["t_shift"] = p["t_shift"]
        elif family == "entangled_gaussian":
            from .states import schmidt_analytic
            st = EntangledGaussian(p["omega_plus"], p["omega_minus"], p.get("mu", 0.0))
            row.update({"omega_plus": p["omega_plus"],
                        "omega_minus": p["omega_minus"],
                        "omega_plus_over_gf": p["omega_plus"] / gf,
                        "omega_minus_over_gf2ge": p["omega_minus"] / (gf + 2 * ge),
                        "mu_ge": p.get("mu", 0.0) * ge,
                        "two_sigma_t2": 2.0 * st.sigma_t2,
                        "two_sigma_w2": 2.0 * st.sigma_w2,
                        "entropy_bits": schmidt_analytic(st).entropy_bits})
        elif family == "coherent":
            row.update({"omega1": p["omega1"], "omega2": p["omega2"],
                        "omega1_over_ge": p["omega1"] / ge,
                        "omega2_over_gf": p["omega2"] / gf,
                        "omega_ratio": p["omega2"] / p["omega1"],
                        "mu_ge": p.get("mu", 0.0) * ge})
        rows.append(row)
    return rows
