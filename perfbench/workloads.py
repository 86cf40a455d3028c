"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload builds its inputs from the seed, runs one operation per input
through tpaopt's public functions (looked up on the module at call time, so
the tracer's wrappers see them), reduces an output to a tuple of floats for
bitwise comparisons, and checks outputs against independent computations
or properties the method must have.
"""

import math

import numpy as np

from tpaopt import absorption, coherent, optimize, sweeps
from tpaopt.model import Atom
from tpaopt.states import (DecayingExpProduct, EntangledGaussian,
                           GaussianProduct, OptimalState, RisingExpProduct)

import oracles


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


def _gaussian_product_amplitude(om1, om2, mu):
    c = (om1**2 / (2 * math.pi)) ** 0.25 * (om2**2 / (2 * math.pi)) ** 0.25
    return lambda t2, t1: c * np.exp(-om1**2 * t1**2 / 4 - om2**2 * (t2 - mu) ** 2 / 4)


class RatioSweep:
    """fig3 rows: Gaussian-product optimum per lifetime ratio, both delay policies."""

    name = "ratio-sweep"
    jobs = 1
    ratios = (0.01, 1.0, 100.0)   # fig3's end points and equal rates

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.ops = [float(r) for r in rng.permutation(self.ratios)]
        self.oracle_cell = int(rng.integers(2))  # policy of the r=1 cell checked by the oracle

    def run(self, ratio, jobs):
        return sweeps.ratio_sweep("gaussian_product", [ratio], jobs=1)

    @staticmethod
    def summary(grid):
        return tuple(grid.values.ravel()) + tuple(
            v for c in grid.cells for v in (c["t_at_max"], *c["params"].values()))

    def check(self, outputs):
        bad = []
        cells = {}
        for grid in outputs:
            free, zero = grid.cells
            r = free["ratio"]
            cells[r] = (free, zero)
            if not free["p_max"] >= zero["p_max"] - 1e-9:
                bad.append(f"r={r}: delay-free {free['p_max']} < zero-delay {zero['p_max']}")
            for c in (free, zero):
                bad += self._check_cell(Atom(r, 1.0), c)
        free, _ = cells[0.01]
        p = free["params"]
        anchors = {"p_max 0.64+-0.02": abs(free["p_max"] - 0.64) < 0.02,
                   "omega1/ge 1.46+-0.05": abs(p["omega1"] / 0.01 - 1.46) < 0.05,
                   "omega2/(ge+gf) 1.46+-0.05": abs(p["omega2"] / 1.01 - 1.46) < 0.05,
                   "mu*ge 1.0+-0.1": abs(p["mu"] * 0.01 - 1.0) < 0.1}
        bad += [f"r=0.01 anchor {k}" for k, ok in anchors.items() if not ok]
        mu_ge = cells[100.0][0]["params"]["mu"] * 100.0
        if not abs(mu_ge - 2.0) < 0.2:
            bad.append(f"r=100 anchor mu*ge 2.0+-0.2: {mu_ge}")
        c = cells[1.0][self.oracle_cell]
        p = c["params"]
        lo = min(-12.0 / p["omega1"], p["mu"] - 12.0 / p["omega2"])
        ref = oracles.pf_riemann(_gaussian_product_amplitude(p["omega1"], p["omega2"], p["mu"]),
                                 1.0, 1.0, 0.0, 0.0, c["t_at_max"], lo)
        if not abs(ref - c["p_max"]) <= 2e-6:
            bad.append(f"r=1 Riemann oracle {ref} vs p_max {c['p_max']}")
        return bad

    @staticmethod
    def _check_cell(atom, c):
        bad = []
        pm, t = c["p_max"], c["t_at_max"]
        where = f"r={atom.gamma_e} mu_free={c['mu_free']}"
        if not 0.0 < pm <= 1.0:
            bad.append(f"{where}: p_max {pm} outside (0, 1]")
        st = GaussianProduct(c["params"]["omega1"], c["params"]["omega2"], c["params"]["mu"])
        q = absorption.pf_at(atom, st, t, method="quadrature")
        if not _close(pm, q, 1e-9):
            bad.append(f"{where}: quadrature {q} vs p_max {pm}")
        for dt in (-1e-3, 1e-3):
            side = absorption.pf_at(atom, st, t + dt / atom.gamma_f, method="quadrature")
            if side > pm:
                bad.append(f"{where}: P_f(t_max{dt:+g}) = {side} > p_max {pm}")
        return bad


class DetuningMap:
    """fig12 on a coarse grid: product and entangled Gaussians at ratios 0.5, 5."""

    name = "detuning-map"
    jobs = 2
    combos = (("gaussian_product", 0.5), ("gaussian_product", 5.0),
              ("entangled_gaussian", 0.5), ("entangled_gaussian", 5.0))
    delta1 = (-1.0, 0.0, 1.0)
    delta2 = (0.0,)
    clause4 = {0.5: (0.79, 1.38, 1.62), 5.0: (1.03, 10.82, 0.19)}

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.ops = [self.combos[i] for i in rng.permutation(len(self.combos))]
        self.sampled = [int(rng.choice([0, 2])) for _ in self.ops]  # detuned cell per map

    def run(self, op, jobs):
        family, ratio = op
        return sweeps.detuning_map(family, ratio, self.delta1, self.delta2, jobs=jobs)

    @staticmethod
    def summary(grid):
        return tuple(grid.values.ravel()) + tuple(
            v for c in grid.cells for v in c["params"].values())

    def check(self, outputs):
        bad = []
        for (family, ratio), grid, k in zip(self.ops, outputs, self.sampled):
            where = f"{family} r={ratio}"
            v = grid.values
            if not np.all((v > 0) & (v <= 1)):
                bad.append(f"{where}: p_max outside (0, 1]")
            if not np.all(np.abs(v - v[::-1, ::-1]) <= 1e-7):
                bad.append(f"{where}: map is not point-symmetric in (delta1, delta2)")
            centre = grid.cells[self.delta1.index(0.0) * len(self.delta2) + self.delta2.index(0.0)]
            if not abs(centre["p_max"] - grid.meta["resonant_p_max"]) <= 1e-6:
                bad.append(f"{where}: delta=0 cell {centre['p_max']} vs resonant "
                           f"{grid.meta['resonant_p_max']}")
            cell = grid.cells[k]
            atom = Atom(ratio, 1.0, cell["delta1"], cell["delta2"])
            st = optimize.build_state(optimize.OptimizationProblem(atom, family), cell["params"])
            t, p = absorption.pf_max_over_t(atom, st)
            q = absorption.pf_at(atom, st, t, method="quadrature")
            if not (p == cell["p_max"] and _close(p, q, 1e-9)):
                bad.append(f"{where}: cell {k} p_max {cell['p_max']}, recomputed {p}, "
                           f"quadrature {q}")
            if family == "entangled_gaussian":
                rp = grid.meta["resonant_params"]
                got = (rp["omega_plus"], rp["omega_minus"], rp["mu"])
                if not all(abs(g / w - 1) < 0.05 for g, w in zip(got, self.clause4[ratio])):
                    bad.append(f"{where}: resonant optimum {got} vs {self.clause4[ratio]}")
        return bad


class Coherent:
    """fig7 cells: coherent-pulse optimum with 2 starts, as in fig12's coherent jobs."""

    name = "coherent"
    jobs = 1
    ratios = (0.01, 1.0)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.ops = [float(r) for r in rng.permutation(self.ratios)]

    def run(self, ratio, jobs):
        problem = optimize.OptimizationProblem(Atom(ratio, 1.0), "coherent",
                                               mu_free=True, n_starts=2)
        return optimize.optimize_pulse(problem)

    @staticmethod
    def summary(res):
        return (res.p_max, res.t_at_max, *res.params.values())

    def check(self, outputs):
        bad = []
        for ratio, res in zip(self.ops, outputs):
            atom = Atom(ratio, 1.0)
            p = res.params
            where = f"r={ratio}"
            if not 0.0 <= res.p_max <= 1.0:
                bad.append(f"{where}: p_max {res.p_max} outside [0, 1]")
            drive = coherent.CoherentDrive(1.0, 1.0, p["omega1"], p["omega2"], p["mu"])
            traj = coherent.evolve(atom, drive)
            trace_err = float(np.max(np.abs(traj.trace() - 1.0)))
            min_eig = float(np.linalg.eigvalsh(traj.matrices()).min())
            if not (trace_err <= 1e-8 and min_eig >= -1e-7):
                bad.append(f"{where}: trace error {trace_err}, min eigenvalue {min_eig}")
            lo = min(-12.0 / p["omega1"], p["mu"] - 12.0 / p["omega2"])
            h = 0.02 / max(p["omega1"], p["omega2"], atom.gamma_e, atom.gamma_f)
            rho = oracles.rk4_ladder(
                atom.gamma_e, atom.gamma_f, 0.0, 0.0,
                oracles.gaussian_coupling(atom.gamma_e, 1.0, p["omega1"], 0.0),
                oracles.gaussian_coupling(atom.gamma_f, 1.0, p["omega2"], p["mu"]),
                lo, res.t_at_max, int(math.ceil((res.t_at_max - lo) / h)))
            if not abs(rho[2, 2].real - res.p_max) <= 1e-6:
                bad.append(f"{where}: RK4 rho_ff {rho[2, 2].real} vs p_max {res.p_max}")
            if ratio == 0.01:
                checks = {"p_max 0.23+-0.01": abs(res.p_max - 0.23) < 0.01,
                          "omega1/ge 2.4+-10%": abs(p["omega1"] / 0.01 / 2.4 - 1) < 0.10,
                          "omega2/gf 2.4+-10%": abs(p["omega2"] / 2.4 - 1) < 0.10,
                          "mu*ge 0.60+-10%": abs(p["mu"] * 0.01 / 0.60 - 1) < 0.10}
                bad += [f"{where}: clause 8 {k}" for k, ok in checks.items() if not ok]
        return bad


class StateEval:
    """Seeded states of all five families, evaluated without any optimizer."""

    name = "state-eval"
    jobs = 1
    families = ("gaussian_product", "entangled_gaussian", "rising_exp",
                "decaying_exp", "optimal")
    per_family = 8   # the first half resonant, the second half detuned
    log_ratio = (-1.0, 0.5)
    jitter = 0.2     # share of a stratum's width

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.ops = []
        half = self.per_family // 2
        lo, hi = self.log_ratio
        for fam in self.families:
            for resonant in (True, False):
                # Latin hypercube over (ratio, detunings, three shape
                # parameters): each stratum once, jittered about its centre
                u = (np.argsort(rng.random((6, half)), axis=1) + 0.5
                     + self.jitter * (rng.random((6, half)) - 0.5)) / half
                for i in range(half):
                    d1, d2 = (0.0, 0.0) if resonant else (-2 + 4 * u[1, i], -2 + 4 * u[2, i])
                    atom = Atom(10 ** (lo + (hi - lo) * u[0, i]), 1.0, d1, d2)
                    self.ops.append((atom, _draw_state(fam, atom, resonant, u[3:, i])))

    def run(self, op, jobs):
        atom, state = op
        curve = absorption.excitation_curve(atom, state, n_times=400)
        tau = absorption.residence_time(atom, state)
        quad = absorption.pf_at(atom, state, curve.t_at_max, method="quadrature")
        inner = (absorption.pf_inner_product(atom, state, curve.t_at_max)
                 if atom.resonant else None)
        return curve, tau, quad, inner

    @staticmethod
    def summary(out):
        curve, tau, quad, inner = out
        return (curve.t_at_max, curve.p_max, *curve.probabilities, tau, quad,
                -1.0 if inner is None else inner)

    def check(self, outputs):
        bad = []
        for (atom, st), (curve, tau, quad, inner) in zip(self.ops, outputs):
            where = f"{st.to_dict()} at {atom}"
            probs = curve.probabilities
            # 1e-12: the matched state reaches 1 up to double rounding
            if not (np.all(probs >= 0.0) and max(probs.max(), curve.p_max) <= 1.0 + 1e-12):
                bad.append(f"{where}: P_f outside [0, 1]")
            if not abs(curve.p_max - quad) <= 1e-9:
                bad.append(f"{where}: fast {curve.p_max} vs quadrature {quad}")
            if inner is not None and not abs(inner - quad) <= 1e-8:
                bad.append(f"{where}: inner product {inner} vs quadrature {quad}")
            if isinstance(st, OptimalState) and atom.resonant:
                p_star = absorption.pf_at(atom, st, st.t_star)
                if not (abs(p_star - 1.0) <= 1e-9 and abs(tau - 2.0 / atom.gamma_f) <= 1e-3):
                    bad.append(f"{where}: matched P_f(t*) {p_star}, residence {tau}")
            if isinstance(st, RisingExpProduct) and atom.resonant:
                s = math.sqrt(1.0 + 8.0 * atom.ratio)
                best = 64 * atom.ratio * (s - 1) / ((4 * atom.ratio + s - 1) ** 2 * (3 + s))
                if not abs(curve.p_max - best) <= 1e-6:
                    bad.append(f"{where}: rising optimum {curve.p_max} vs formula {best}")
            if isinstance(st, DecayingExpProduct):
                t0 = min(0.0, st.t_shift)
                after = curve.times > t0
                bound = 1.0 - np.exp(-atom.gamma_f * (curve.times[after] - t0))
                if not np.all(probs[after] <= bound + 1e-12):
                    bad.append(f"{where}: relaxation bound 1 - exp(-gf (t - t0)) broken")
        return bad


def _draw_state(fam, atom, resonant, u):
    """State of family ``fam`` from three uniform numbers u in [0, 1)."""
    width = lambda x, lo=-0.5, hi=0.8: 10 ** (lo + (hi - lo) * x)
    if fam == "gaussian_product":
        return GaussianProduct(width(u[0]), width(u[1]), -2.0 + 5.0 * u[2])
    if fam == "entangled_gaussian":
        return EntangledGaussian(width(u[0]), width(u[1], hi=1.0), -1.0 + 3.0 * u[2])
    if fam == "rising_exp":
        if resonant:  # the closed-form optimal bandwidths for this ratio
            om1 = (math.sqrt(1.0 + 8.0 * atom.ratio) - 1.0) / 4.0
            return RisingExpProduct(om1, om1 + 1.0)
        return RisingExpProduct(width(u[0], hi=0.7), width(u[1], hi=0.7))
    if fam == "decaying_exp":
        # t_shift >= 0: with the second pulse first, both reference routes
        # miss the kink at t2 = 0 (see CHANGES.md)
        return DecayingExpProduct(width(u[0], hi=0.7), width(u[1], hi=0.7), 2.0 * u[2])
    own = Atom(atom.gamma_e, atom.gamma_f)
    if resonant:  # matched to the driven atom: perfect excitation at t_star
        return OptimalState(own, -1.0 + 2.0 * u[0])
    return OptimalState(own, -1.0 + 2.0 * u[0], -9.0 + 6.0 * u[1])


WORKLOADS = {w.name: w for w in (RatioSweep, DetuningMap, Coherent, StateEval)}
