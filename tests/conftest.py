"""Shared oracles and draw helpers for the test suite.

The oracles here are deliberately independent of the package's numerical
paths: a dense two-dimensional cumulative-trapezoid evaluation of the
excitation probability, and a fixed-step classical Runge-Kutta integrator
for the driven master equation. The excitation probability also has the
unshifted compact form under adaptive quadrature. The master equation's
right-hand side `lindblad_rhs` and scipy's ``solve_ivp`` live only among
these oracles: the package integrates the master equation with its own
Dormand-Prince stepper, and `solve_ivp_reference` is the reference for both
its trajectories and its maxima.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tpaopt.absorption import _pf_at_quadrature
from tpaopt.coherent import _system_matrices
from tpaopt.model import Atom
from tpaopt.numutil import refine_max
from tpaopt.quadrature import integrate
from tpaopt.states import (DecayingExpProduct, EntangledGaussian,
                           GaussianProduct, OptimalState, RisingExpProduct)


def pf_brute_force(atom, amplitude, t, lo, n=2000, richardson=True):
    """Dense Riemann-sum oracle for P_f(t) on the shifted, rebalanced form.

    The inner integral is accumulated by cumulative trapezoid along the
    photon-1 axis and read off exactly on the diagonal; Richardson
    extrapolation of the n and 2n grids removes the leading h^2 error.
    """
    def once(m):
        s = np.linspace(lo, t, m)
        T2, T1 = np.meshgrid(s, s, indexing="ij")
        F = np.exp(1j * atom.delta1 * T1 - 0.5 * atom.gamma_e * (T2 - T1))
        F = np.where(T1 <= T2, F * amplitude(T2, T1), 0.0)
        ds = s[1] - s[0]
        ct = np.concatenate(
            [np.zeros((m, 1)), np.cumsum(0.5 * (F[:, 1:] + F[:, :-1]) * ds, axis=1)],
            axis=1)
        g = ct[np.arange(m), np.arange(m)]
        outer = np.trapezoid(
            np.exp(1j * atom.delta2 * (s - t) - 0.5 * atom.gamma_f * (t - s)) * g, s)
        return atom.gamma_e * atom.gamma_f * abs(outer) ** 2
    if not richardson:
        return once(n)
    p1, p2 = once(n), once(2 * n - 1)
    return p2 + (p2 - p1) / 3.0


def pf_compact(atom, state, t, t0=-np.inf, rel_tol=1e-9):
    """P_f(t) from the compact unshifted form under nested adaptive quadrature.

    Algebraically identical to the shifted form of the reference route, but
    its exponentials are not rebalanced, so it holds only at moderate
    rate*time products.
    """
    ge, gf, d1, d2 = atom.gamma_e, atom.gamma_f, atom.delta1, atom.delta2
    lo2 = max(state.support2()[0], t0)
    hi2 = min(t, state.support2()[1])
    if hi2 <= lo2:
        return 0.0
    lo1 = max(state.support1()[0], t0)

    def g(t2):
        hi1 = min(t2, state.support1()[1])
        if hi1 <= lo1:
            return 0.0 + 0.0j
        f = lambda tau: np.exp((1j * d1 + 0.5 * ge) * tau) * state.amplitude(t2, tau)
        return integrate(f, lo1, hi1, rel_tol=rel_tol * 0.1,
                         breakpoints=tuple(state.breakpoints1()) + (t2,))

    def outer(t2_arr):
        t2_arr = np.atleast_1d(t2_arr)
        vals = np.array([g(x) for x in t2_arr])
        return np.exp((1j * d2 + 0.5 * (gf - ge)) * t2_arr) * vals

    o = integrate(outer, lo2, hi2, rel_tol=rel_tol,
                  breakpoints=tuple(state.breakpoints2()) + tuple(state.breakpoints1()))
    return float(ge * gf * math.exp(-gf * t) * abs(o) ** 2)


def pf_quadrature(atom, state, t, rel_tol):
    """`pf_at`'s reference route (nested adaptive quadrature) at a
    tolerance tighter than the 1e-9 that `pf_at` uses."""
    return _pf_at_quadrature(atom, state, t, rel_tol)


def rk4_fixed_step(rhs, y0, t0, t1, dt):
    """Classical fixed-step RK4; returns (times, states)."""
    n = int(np.ceil((t1 - t0) / dt))
    ts = t0 + dt * np.arange(n + 1)
    ts[-1] = t1
    y = np.array(y0, dtype=float)
    out = np.empty((n + 1, y.size))
    out[0] = y
    for i in range(n):
        h = ts[i + 1] - ts[i]
        k1 = rhs(ts[i], y)
        k2 = rhs(ts[i] + h / 2, y + h / 2 * k1)
        k3 = rhs(ts[i] + h / 2, y + h / 2 * k2)
        k4 = rhs(ts[i] + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = y
    return ts, out


def lindblad_rhs(atom, drive):
    """Right-hand side f(t, y) of the 9-component real master equation."""
    a0, a1, a2 = _system_matrices(atom)
    c1 = math.sqrt(atom.gamma_e * drive.n1)
    c2 = math.sqrt(atom.gamma_f * drive.n2)

    def rhs(t, y):
        e1 = c1 * drive.envelope1(t)
        e2 = c2 * drive.envelope2(t)
        return (a0 + e1 * a1 + e2 * a2) @ y

    return rhs


def solve_ivp_reference(atom, drive, window, rtol, atol):
    """Dense solution of the master equation from the ground state at the
    window's start: scipy's ``solve_ivp`` (RK45) on `lindblad_rhs`.

    Returns times -> states, shape (9,) + shape of the times.
    """
    y0 = np.zeros(9)
    y0[0] = 1.0
    sol = solve_ivp(lindblad_rhs(atom, drive), (window.t_start, window.t_end), y0,
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    assert sol.success, sol.message
    return sol.sol


def pf_max_coherent_reference(atom, drive, rtol, atol, n_scan=1200):
    """Coherent maximum through `solve_ivp_reference`.

    Same scan and refiner as ``coherent.pf_max_coherent``, with every state
    and slope taken from scipy's solver on `lindblad_rhs`.
    """
    window = drive.default_window(atom)
    rhs = lindblad_rhs(atom, drive)
    sol = solve_ivp_reference(atom, drive, window, rtol, atol)
    ts = np.linspace(window.t_start, window.t_end, n_scan)
    pf = sol(ts)[2]
    i = int(np.argmax(pf))
    win = slice(max(i - 1, 0), i + 2)
    slopes = [rhs(t, y)[2] for t, y in zip(ts[win], sol(ts[win]).T)]

    def trial(k):
        def at(t):
            y = sol(t)
            return rhs(t, y)[2], y[2]
        return at

    return refine_max(ts[win], pf[win], slopes, trial, 1e-6 / atom.gamma_f)


def random_state(rng, family=None):
    """Random valid state with parameters in the regimes the tests cover."""
    fam = family or rng.choice(
        ["gaussian_product", "entangled_gaussian", "rising_exp",
         "decaying_exp", "optimal"])
    if fam == "gaussian_product":
        return GaussianProduct(10 ** rng.uniform(-0.5, 0.7),
                               10 ** rng.uniform(-0.5, 0.7),
                               rng.uniform(-2.0, 3.0))
    if fam == "entangled_gaussian":
        return EntangledGaussian(10 ** rng.uniform(-0.5, 0.7),
                                 10 ** rng.uniform(-0.5, 1.0),
                                 rng.uniform(-1.0, 2.0))
    if fam == "rising_exp":
        return RisingExpProduct(10 ** rng.uniform(-0.5, 0.7),
                                10 ** rng.uniform(-0.5, 0.7))
    if fam == "decaying_exp":
        return DecayingExpProduct(10 ** rng.uniform(-0.5, 0.7),
                                  10 ** rng.uniform(-0.5, 0.7),
                                  rng.uniform(-1.0, 2.0))
    return OptimalState(Atom(10 ** rng.uniform(-1, 1), 1.0),
                        rng.uniform(-1.0, 1.0), rng.uniform(-9.0, -3.0))


def random_atom(rng, resonant=False):
    ge = 10 ** rng.uniform(-1, 1)
    if resonant:
        return Atom(ge, 1.0)
    return Atom(ge, 1.0, rng.uniform(-1, 1), rng.uniform(-1, 1))


def strip_timestamp(text):
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# generated:"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
