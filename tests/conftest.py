"""Shared oracles and draw helpers for the test suite.

The oracles here are deliberately independent of the package's numerical
paths: a dense two-dimensional cumulative-trapezoid evaluation of the
excitation probability, and a fixed-step classical Runge-Kutta integrator
for the driven master equation. The excitation probability also has the
unshifted compact form under adaptive quadrature. The master equation's
right-hand side `lindblad_rhs` and scipy's ``solve_ivp`` live only among
these oracles: the package integrates the master equation with its own
Dormand-Prince stepper, and `solve_ivp_reference` is the reference for both
its trajectories and its maxima. `curve_amplitudes_time_split` keeps the
fast route's earlier sampling, every time a panel edge, as the reference for
the times read off each panel's antiderivative, and
`pf_max_coherent_in_stepper` keeps the coherent gradient's earlier route,
the forward sensitivities carried through every step, as the reference for
the gradient read off the steps' stages.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tpaopt.absorption import _outer_edges, _pf_at_quadrature, decayed_inner
from tpaopt.coherent import (_C, _E, _P, _WEIGHTS, _generators, _rms,
                             _system_matrices)
from tpaopt.model import Atom
from tpaopt.numutil import refine_max
from tpaopt.quadrature import integrate, integrate_batch, panel_nodes
from tpaopt.states import (DecayingExpProduct, EntangledGaussian,
                           GaussianProduct, OptimalState, RisingExpProduct)
from tpaopt.sweeps import _one_blas_thread


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
    bks = [tuple(state.breakpoints1())]

    def outer(t2):
        t2 = np.atleast_1d(t2)

        def f(tau, k):
            return np.exp((1j * d1 + 0.5 * ge) * tau) * state.amplitude(t2[k], tau)

        hi1 = np.maximum(np.minimum(t2, state.support1()[1]), lo1)
        g = integrate_batch(f, np.full(t2.size, lo1), hi1, rel_tol * 0.1, bks * t2.size)
        return np.exp((1j * d2 + 0.5 * (gf - ge)) * t2) * g

    o = integrate(outer, lo2, hi2, rel_tol=rel_tol,
                  breakpoints=tuple(state.breakpoints2()) + tuple(state.breakpoints1()))
    return float(ge * gf * math.exp(-gf * t) * abs(o) ** 2)


def pf_quadrature(atom, state, t, rel_tol):
    """`pf_at`'s reference route (nested adaptive quadrature) at a
    tolerance tighter than the 1e-9 that `pf_at` uses."""
    return _pf_at_quadrature(atom, state, t, rel_tol)


def curve_amplitudes_time_split(atom, state, times):
    """The fast route's outer amplitudes with every time inside the support
    made a panel edge, as `curve_amplitudes` computed them before it read
    the times off each panel's antiderivative: each time adds a panel, and
    its amplitude is the accumulated sum at its edge."""
    c2 = 1j * atom.delta2 + 0.5 * atom.gamma_f
    times = np.asarray(times, dtype=float)
    lo2, hi2 = state.support2()
    out = np.zeros(times.size, dtype=complex)
    t_hi = min(times[-1], hi2)
    if t_hi <= lo2:
        return out
    inside = (times > lo2) & (times <= t_hi)
    edges = _outer_edges(atom, state, lo2, t_hi)
    edges = np.unique(np.concatenate([edges, times[inside]]))
    nodes, half, w = panel_nodes(edges)
    vals = (np.exp(c2 * (nodes - edges[1:, None]))
            * decayed_inner(atom, state, nodes.ravel()).reshape(nodes.shape))
    panel = half * (vals @ w)
    decay = np.exp(c2 * (edges[:-1] - edges[1:]))
    acc = np.empty(panel.size, dtype=complex)
    run = 0.0 + 0.0j
    for j in range(panel.size):
        run = run * decay[j] + panel[j]
        acc[j] = run
    out[inside] = acc[np.searchsorted(edges, times[inside]) - 1]
    beyond = times > t_hi
    out[beyond] = acc[-1] * np.exp(c2 * (t_hi - times[beyond]))
    return out


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

    def at(t):
        y = sol(t)
        return rhs(t, y)[2], y[2]

    return refine_max(ts[win], pf[win], slopes, at, 1e-6 / atom.gamma_f)


def pf_max_coherent_in_stepper(atom, drive, rtol, atol):
    """(t_max, p_max, gradient) of ``coherent.pf_max_coherent`` with the
    forward sensitivities S = dy/d(omega1, omega2, mu) carried through every
    accepted step by the stepper itself, as the package computed them before
    its gradient pass read them off the stages.

    X = (S, y) takes each step with the generator [I3 (x) M | dM/dtheta]
    (27 x 36), its y columns refilled from y's own stages, and S is read at
    the slope's root from its own dense output. y's steps, the scan and the
    refiner are the package's, so (t_max, p_max) agree with it bit for bit.
    """
    window = drive.default_window(atom)
    t0, t1 = window.t_start, window.t_end
    generators = _generators(atom, drive)
    basis = np.stack(_system_matrices(atom)[1:]).reshape(2, 81)
    c1 = math.sqrt(atom.gamma_e * drive.n1)
    c2 = math.sqrt(atom.gamma_f * drive.n2)

    def derivatives(ts):
        coef = drive.envelope_derivatives(ts)
        coef[0] *= c1
        coef[1] *= c2
        return (coef.T @ basis).reshape(-1, 27, 9)

    y = np.zeros(9)
    y[0] = 1.0
    f = generators(np.array([t0]))[0] @ y
    span = t1 - t0
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = generators(np.array([t0 + h0]))[0] @ (y + h0 * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, span)

    z = np.empty((8, 9))
    g = np.zeros((5, 27, 36))
    kx = np.empty((8, 36))
    sens = np.zeros(27)
    kx[7, :27] = derivatives(np.array([t0]))[0] @ y
    t = t0
    ts, ys, qs, ss, sqs = [t], [y], [], [sens], []
    while t < t1:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        z[0], z[1] = y, f
        while True:
            assert h_abs >= min_step
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            m = generators(t + _C[1:] * h)
            w = h * _WEIGHTS
            w[:, 0] = 1.0
            for s in range(1, 6):
                z[s + 1] = m[s - 1] @ (w[s, :s + 1] @ z[:s + 1])
            y_new = w[6] @ z[:7]
            z[7] = f_new = m[4] @ y_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms((h * _E) @ z[1:] / scale)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        for i in range(0, 27, 9):
            g[:, i:i + 9, i:i + 9] = m
        g[:, :, 27:] = derivatives(t + _C[1:] * h)
        kx[0, :27], kx[1, :27] = sens, kx[7, :27]
        kx[:, 27:] = z
        for s in range(1, 6):
            kx[s + 1, :27] = g[s - 1] @ (w[s, :s + 1] @ kx[:s + 1])
        x_new = w[6] @ kx[:7]
        x_new[27:] = y_new
        kx[7, :27] = g[4] @ x_new
        sens = x_new[:27]
        qs.append(z[1:].T @ _P)
        sqs.append(kx[1:, :27].T @ _P)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        ss.append(sens)
    ts = np.array(ts)

    def dense(tt, y, q, rows=slice(None)):
        seg = np.clip(np.searchsorted(ts, tt) - 1, 0, len(q) - 1)
        h = ts[seg + 1] - ts[seg]
        powers = np.cumprod(np.repeat(((tt - ts[seg]) / h)[:, None], 4, 1), 1)
        return h[:, None] * np.einsum("nij,nj->ni", q[seg, rows], powers) + y[seg, rows]

    ys, qs, ss, sqs = np.array(ys), np.array(qs), np.array(ss), np.array(sqs)
    scan = np.linspace(t0, t1, 1200)
    pf = dense(scan, ys, qs, slice(2, 3))[:, 0]
    i = int(np.argmax(pf))
    win = slice(max(i - 1, 0), i + 2)
    slopes = np.einsum("ij,ij->i", generators(scan[win])[:, 2], dense(scan[win], ys, qs))

    def at(tt):
        y = dense(np.array([tt]), ys, qs)[0]
        return generators(np.array([tt]))[0, 2] @ y, y[2]

    xtol = 1e-6 / atom.gamma_f
    t_max, p_max = refine_max(scan[win], pf[win], slopes, at, xtol)
    ds = at(t_max + xtol)[0] - at(t_max - xtol)[0]
    dt = -at(t_max)[0] * 2.0 * xtol / ds if ds else 0.0
    t_root = t_max + dt if abs(dt) <= 2.0 * xtol else t_max
    return t_max, p_max, dense(np.array([t_root]), ss, sqs, slice(2, 27, 9))[0]


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


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """The suite runs the loaded OpenBLAS builds on one thread, as the
    `--jobs` pool workers do, and restores the caller's counts at the end."""
    with _one_blas_thread():
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
