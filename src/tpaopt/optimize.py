"""Maximization of the excitation probability over pulse shapes.

Parameters live in transformed coordinates (log for spectral widths,
identity for delays) inside the search box of `search_box`, and a
deterministic set of multistart seeds spans the atomic linewidth scales.
Every family climbs with bounded L-BFGS-B (`lbfgs_trust`) on a gradient
from the envelope theorem: the time maximum t* has zero time slope, so the
gradient of p_max is the parameter derivative of P_f at fixed t*. For the
two-photon families it is read off the scan's one kernel pass and panels
(`absorption.pf_max_over_t`, closed-form field derivatives); for coherent
drives it is the forward sensitivities of the DP5 steps, read off the
accepted steps' stages at t*.
`_objective` returns the gradient with p_max and t*, so every search, the
1-D delay climb of `sweeps` included, runs on it. Each
run is confined to a trust box around its centre and re-centred while it
stops on an inner face of that box. The starts run in order until two of
them agree to 1e-9; ties between the starts that ran are broken toward the
lexicographically smallest parameter vector for reproducibility.

This module optimizes one problem; the loops over lifetime ratios, widths
and detunings behind the figure presets live in `sweeps`.

No search in the package calls `nelder_mead`: it is the tests' reference
optimizer, and it stays in this module because perfbench's
`optimize.nelder_mead` span patches it here.
"""

import math
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.optimize import minimize

from . import absorption, coherent
from .model import Atom
from .states import (DecayingExpProduct, EntangledGaussian, GaussianProduct,
                     RisingExpProduct, delay_field, from_fields, width_names)

WIDTH_BOUNDS = (1e-3, 1e3)   # in gamma_f units
DELAY_BOUNDS = (-50.0, 50.0)  # in units of the slowest lifetime
TIE = 1e-9                    # starts this close to the best value agree
AGREEING_STARTS = 2           # the multistart stops once this many agree

# the optimizable families: parameters are their widths and, unless frozen
# at its default, their delay; a coherent drive's n1 and n2 come from the problem
FAMILIES = {cls.family: cls for cls in (GaussianProduct, EntangledGaussian,
                                        RisingExpProduct, DecayingExpProduct,
                                        coherent.CoherentDrive)}


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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {', '.join(FAMILIES)}")
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("mean photon numbers must be >= 0, "
                             f"got n1={self.n1}, n2={self.n2}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts={self.n_starts}: a search needs at least one start")

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class OptimizationResult:
    params: dict
    p_max: float
    t_at_max: float
    n_evaluations: int
    converged: bool
    stationarity: float
    starts: list = field(default_factory=list)
    skipped_starts: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def nelder_mead(f, x0, steps, max_evals=2000):
    """Minimize f from x0; returns (x, fx, n_evals, converged, diameter).

    Standard reflection/expansion/contraction/shrink moves; convergence when
    the simplex diameter relative to the centroid scale drops below 1e-5
    and the vertex objective spread below 1e-9.
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
        if diameter() < 1e-5 and (fvals[-1] - fvals[0]) < 1e-9:
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


def lbfgs_trust(fg, x0, lo, hi, radius, max_evals):
    """Minimize f by L-BFGS-B in the box [lo, hi], one trust box at a time.

    ``fg(x)`` returns (f, gradient). Each run is confined to x_c +- radius
    (intersected with the box) around its centre x_c; while it stops on a
    face of that trust box that is not a face of [lo, hi], it is re-centred
    there and run again, so no quasi-Newton step leaves the neighbourhood
    of the path. L-BFGS-B works in the coordinates x / (radius / 2), in
    which every trust box is +-2: a delay then steps on the same scale as a
    log width. Returns (x, fx, n_evals, converged, stationarity): converged
    means the last run succeeded off every inner trust face, and
    stationarity is the max-norm of the projected gradient on [lo, hi], in
    the coordinates of x.
    """
    scale = 0.5 * np.asarray(radius, dtype=float)

    def fg_scaled(u):
        f, g = fg(u * scale)
        return f, g * scale

    u = np.clip(np.asarray(x0, dtype=float), lo, hi) / scale
    ulo, uhi = lo / scale, hi / scale
    n_evals = 0
    while True:
        tlo, thi = np.maximum(ulo, u - 2.0), np.minimum(uhi, u + 2.0)
        # gtol is on the scaled gradient, where the coherent gradient's noise
        # at the default coherent_rtol comes close to it; both stops leave
        # p_max within about 1e-11 relative of the optimum
        res = minimize(fg_scaled, u, jac=True, method="L-BFGS-B",
                       bounds=list(zip(tlo, thi)),
                       options={"maxfun": max(max_evals - n_evals, 1),
                                "ftol": 1e-13, "gtol": 1e-7})
        n_evals += res.nfev
        u = res.x
        inner_face = np.any(((u <= tlo) & (tlo > ulo)) | ((u >= thi) & (thi < uhi)))
        if not inner_face or n_evals >= max_evals:
            break
    x = u * scale
    stationarity = float(np.max(np.abs(np.clip(x - res.jac / scale, lo, hi) - x)))
    return x, float(res.fun), n_evals, bool(res.success) and not inner_face, stationarity


def _param_names(problem):
    """Widths, then the delay if the problem frees it, as the class names them."""
    cls = FAMILIES[problem.family]
    delay = delay_field(cls)
    return width_names(cls) + ((delay[0],) if problem.mu_free and delay else ())


def _is_width(name):
    return name.startswith("omega")


def _encode(problem, params):
    return np.array([math.log(params[n]) if _is_width(n) else params[n]
                     for n in _param_names(problem)])


def _decode(problem, x):
    out = {}
    for name, v in zip(_param_names(problem), x):
        out[name] = math.exp(v) if _is_width(name) else v
    delay = delay_field(FAMILIES[problem.family])
    if delay:
        out.setdefault(*delay)  # a frozen delay sits at its default
    return out


def build_state(problem, params):
    """The family's state (or drive) from named parameters."""
    return from_fields(FAMILIES[problem.family],
                       {"n1": problem.n1, "n2": problem.n2, **params})


def max_over_time(problem, obj, gradient=False):
    """(t_at_max, p_max) of a built state or drive; coherent drives are
    integrated to the problem's ``coherent_rtol`` (atol = rtol / 100). With
    ``gradient``, d p_max/d(widths, delay) comes third, in field order."""
    if problem.family == "coherent":
        return coherent.pf_max_coherent(problem.atom, obj, rtol=problem.coherent_rtol,
                                        atol=problem.coherent_rtol * 1e-2,
                                        gradient=gradient)
    return absorption.pf_max_over_t(problem.atom, obj, gradient=gradient)


def search_box(atom):
    """((width_lo, width_hi), (delay_lo, delay_hi)) searched, in absolute units."""
    gf = atom.gamma_f
    # optimal delays scale with the slowest lifetime (mu* ~ 1/gamma_e)
    slow = min(atom.gamma_e, gf)
    return ((WIDTH_BOUNDS[0] * gf, WIDTH_BOUNDS[1] * gf),
            (DELAY_BOUNDS[0] / slow, DELAY_BOUNDS[1] / slow))


def _encoded_box(problem):
    """Lower and upper bounds of `search_box` in the encoded coordinates."""
    (wlo, whi), (dlo, dhi) = search_box(problem.atom)
    names = _param_names(problem)
    return (np.array([math.log(wlo) if _is_width(n) else dlo for n in names]),
            np.array([math.log(whi) if _is_width(n) else dhi for n in names]))


def _scales(problem):
    """Length scale per encoded coordinate, half a trust radius: 1 in a log
    width, and in a delay the larger of half the intermediate and a tenth of
    the final lifetime."""
    delay = max(0.5 / problem.atom.gamma_e, 0.1 / problem.atom.gamma_f)
    return np.array([1.0 if _is_width(n) else delay for n in _param_names(problem)])


def _objective(problem):
    """The climb's objective as a cached function of encoded parameters,
    x -> (-p_max, t_at_max, -grad p_max).

    At the refined maximum t* the time slope of P_f is zero, so (envelope
    theorem) the gradient of p_max(x) = P_f(t*(x), x) is the partial
    derivative of P_f at fixed t*, which `max_over_time` returns per field.
    """
    names = _param_names(problem)
    cache = {}

    def evaluate(x):
        key = tuple(np.round(x, 12))
        if key in cache:
            return cache[key]
        params = _decode(problem, x)
        tm, pm, grad = max_over_time(problem, build_state(problem, params), gradient=True)
        # names are the widths, then a free delay: the order of grad, whose
        # frozen delay is dropped; a log width takes the chain factor omega
        chain = np.array([params[n] if _is_width(n) else 1.0 for n in names])
        cache[key] = (-pm, tm, -grad[:len(names)] * chain)
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
    if fam == "decaying_exp":
        delays = [0.0, 1.0 / ge, 1.0 / gf, 2.0 / ge]
    else:
        delays = [1.0 / ge, 0.0, 2.0 / ge, 0.5 / ge]
    clip = lambda w: float(np.clip(w, WIDTH_BOUNDS[0] * gf, WIDTH_BOUNDS[1] * gf))
    names = _param_names(problem)  # without a free delay, zip drops it
    starts = []
    for i in range(problem.n_starts):
        w1, w2 = widths[i % len(widths)]
        delay = delays[(i // len(widths)) % len(delays)]
        starts.append(dict(zip(names, (clip(w1), clip(w2), delay))))
    return starts


def optimize_pulse(problem: OptimizationProblem, starts=None):
    """Multistart search; returns the best point of the starts that ran.

    Every family climbs by `lbfgs_trust` on the gradient that `_objective`
    carries, inside the search box. The starts run in order until
    AGREEING_STARTS of them lie within TIE of the best value so far; the
    rest are listed in ``skipped_starts``. Seeds are jittered
    (log-normally for widths) by the problem seed when it is nonzero;
    results are deterministic for a fixed seed.
    """
    evaluate = _objective(problem)
    if starts is None:
        starts = default_starts(problem)
    if not starts:
        raise ValueError("optimize_pulse needs at least one start")
    rng = np.random.default_rng(problem.seed)
    per_start = max(problem.max_evals // max(len(starts), 1), 200)

    def fg(x):
        neg_p, _, neg_grad = evaluate(x)
        return neg_p, neg_grad

    lo, hi = _encoded_box(problem)
    radius = 2.0 * _scales(problem)
    records = []
    total_evals = 0
    for i, p in enumerate(starts):
        x0 = _encode(problem, p)
        if problem.seed != 0 and i > 0:
            jitter = rng.normal(0.0, 0.05, size=x0.size)
            x0 = x0 + jitter
        x, fx, nev, conv, stat = lbfgs_trust(fg, x0, lo, hi, radius, per_start)
        total_evals += nev
        records.append({"start": dict(p), "value": -fx, "converged": conv,
                        "n_evals": nev, "x": x, "stationarity": stat})
        best_val = max(r["value"] for r in records)
        near = [r for r in records if r["value"] >= best_val - TIE]
        if len(near) >= AGREEING_STARTS:
            break
    best = min(near, key=lambda r: tuple(r["x"]))
    params = _decode(problem, best["x"])
    neg_p, t_at = evaluate(best["x"])[:2]
    starts_out = [{"start": r["start"], "value": r["value"],
                   "converged": r["converged"], "n_evals": r["n_evals"]}
                  for r in records]
    return OptimizationResult(
        params=params, p_max=-neg_p, t_at_max=t_at,
        n_evaluations=total_evals,
        converged=best["converged"],
        stationarity=best["stationarity"], starts=starts_out,
        skipped_starts=[dict(p) for p in starts[len(records):]])
