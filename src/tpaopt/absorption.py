"""Final-state excitation probability for two-photon input states.

The probability at time t is a nested double integral of the joint temporal
amplitude against exponential memory kernels of the two decay rates. Two
routes are provided:

* a reference route evaluating both integrals with adaptive Gauss-Kronrod
  quadrature in a time-shifted form whose exponents are all nonpositive on
  the integration domain (mandatory for large rate*time products); each
  call of the outer integrand takes the inner integrals of all its nodes
  from one lockstep batch (`integrate_batch`);
* a fast route that takes the inner integral in closed form from the state
  family (`decayed_inner`; complex scaled error functions for the Gaussian
  families, elementary exponentials otherwise) and accumulates the outer
  integral over Gauss-Legendre panels, sized by the family's time scales,
  with per-step exponential rebalancing; a sample time between panel edges
  is read off its panel's Legendre antiderivative.

On both routes the interaction starts in the infinite past; a state that
starts at a finite time carries that start in its own support, as the
truncated matched state ``OptimalState(atom, t_star, t0)`` does. A time
maximum's scan, its refiner's trials and its field gradient all read one set
of outer panels, from one `decayed_inner` pass (`_OuterPanels`).

The fast route is validated against the reference route to 1e-9 in the test
suite; closed-form expressions for the exponential families follow their own
algebraic derivations and serve as mutual cross-checks.
"""

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import simpson

from .model import Atom
from .numutil import phi1, refine_max
from .optimal import pmax_bound
from .quadrature import (gl_antiderivative, gl_nodes, gl_panels, integrate, integrate_batch,
                         panel_nodes, subdivide)
from .states import OptimalState, UnsupportedFamilyError, delay_field


class NotResonantError(ValueError):
    """Operation requires delta1 = delta2 = 0."""


def decayed_inner(atom: Atom, state, t2, derivatives=False):
    """Analytic inner integral G(t2), from the state family's own
    ``decayed_inner``: G(T2) = int_{tau <= T2} e^{i d1 tau - ge (T2-tau)/2}
    psi(T2, tau) for the driving atom. With ``derivatives`` returns
    (G, dG/d(field)), one row per field in field order. A state without the
    inner integral, or without the derivatives asked for (only the
    optimizable families have them), raises UnsupportedFamilyError."""
    inner = getattr(state, "decayed_inner", None)
    if inner is None:
        raise UnsupportedFamilyError(
            f"no analytic inner integral for {type(state).__name__}")
    return inner(atom, np.asarray(t2, dtype=float), derivatives)


def scan_bounds(atom: Atom, state, pad=None):
    """Bracket [lo, hi] containing the whole excitation transient."""
    lo = max(state.support1()[0], state.support2()[0])
    hi = state.support2()[1] + (10.0 / atom.gamma_f if pad is None else pad)
    return lo, hi


def _outer_breakpoints(state):
    """Kinks along t2: the state's own, and the t1-support edges that the
    inner integral (running up to t2) carries over."""
    return tuple(state.breakpoints2()) + tuple(state.breakpoints1())


def _outer_edges(atom: Atom, state, lo, hi):
    rate = atom.gamma_e + atom.gamma_f + abs(atom.delta1) + abs(atom.delta2)
    # inner_scale never exceeds t2_scale, so it sizes the t2 panels too
    h_max = min(4.0 / rate, 2.0 * state.inner_scale(atom))
    return subdivide(lo, hi, h_max, extra=_outer_breakpoints(state))


def _legendre(u, n, derivatives=False):
    """P_0..P_n at u (a float or an array; degree last), bit for bit numpy's
    `legvander` by its own recurrence, and with ``derivatives`` P_0'..P_n'; at
    a float u it runs on floats, not the array calls that slow `legvander`."""
    p = np.empty((n + 1,) + np.shape(u))
    dp = np.empty_like(p) if derivatives else None
    p0, p1, d0, d1 = 1.0, u, 0.0, 1.0
    p[0], p[1] = p0, p1
    if derivatives:
        dp[0], dp[1] = d0, d1
    for i in range(2, n + 1):
        p0, p1 = p1, (p1 * u * (2 * i - 1) - p0 * (i - 1)) / i
        p[i] = p1
        if derivatives:
            d0, d1 = d1, d0 + (2 * i - 1) * p0
            dp[i] = d1
    return (p.T, dp.T) if derivatives else p.T


class _OuterPanels:
    """The outer panels of one P_f curve over [lo2, t_hi], t_hi = min(t_last,
    hi2) > lo2, from one `decayed_inner` call over all their nodes (with the
    field derivatives when ``derivatives``): O(t) at many times, (dP_f/dt,
    P_f) at one time for the refiner, and dP_f/d(field).

    Panel integrals are anchored at their right edges and accumulated with
    per-step decay factors of modulus <= 1; a time on an edge takes the sum
    there. In the panel j = [a, b], F_j(u) integrates from a the node
    interpolant of e^{c2 (t2 - b)} G(t2) (`gl_antiderivative`), and
        O(t) = acc_a e^{c2 (a - t)} + e^{c2 (b - t)} half F_j(u),
        dO/dt = e^{c2 (b - t)} F_j'(u) - c2 O(t),
    |e^{c2 (b - t)}| <= e^{gf h_max / 2} <= e^2. F_j' interpolates G, so the
    slope is left-continuous at hi2, past which O only decays.
    """

    def __init__(self, atom, state, t_last, derivatives=False):
        self.atom, self.state = atom, state
        self.c2 = c2 = 1j * atom.delta2 + 0.5 * atom.gamma_f
        lo2, hi2 = state.support2()
        self.edges = edges = _outer_edges(atom, state, lo2, min(t_last, hi2))  # t_hi last
        nodes, self.half, self.w = panel_nodes(edges)
        anchor = np.exp(c2 * (nodes - edges[1:, None]))
        if derivatives:  # G at lo2 too, for the delay's Leibniz term
            g, dg = decayed_inner(atom, state, np.append(nodes.ravel(), lo2), derivatives=True)
            self.g_lo2, g = g[-1], g[:-1]
            self.dvals = anchor * dg[:, :-1].reshape(-1, *nodes.shape)
        else:
            g = decayed_inner(atom, state, nodes.ravel())
        vals = anchor * g.reshape(nodes.shape)
        panel = self.half * (vals @ self.w)
        self.coef = vals @ gl_antiderivative(self.w.size).T  # F_j's, one row per panel

        # sequential accumulation; every step factor has modulus <= 1
        decay = np.exp(c2 * (edges[:-1] - edges[1:]))
        self.acc = np.zeros(panel.size + 1, dtype=complex)  # acc[j]: the sum at edges[j]
        run = 0.0 + 0.0j
        for j in range(panel.size):
            run = run * decay[j] + panel[j]
            self.acc[j + 1] = run

    def amplitudes(self, times):
        """O at the ascending ``times``."""
        c2, edges, acc = self.c2, self.edges, self.acc
        out = np.zeros(times.size, dtype=complex)
        inside = np.flatnonzero((times > edges[0]) & (times <= edges[-1]))
        t = times[inside]
        idx = np.searchsorted(edges, t)
        on_edge = edges[idx] == t
        out[inside[on_edge]] = acc[idx[on_edge]]
        t, j = t[~on_edge], idx[~on_edge] - 1  # t inside the panel [edges[j], edges[j+1]]
        a, b, half = edges[j], edges[j + 1], self.half[j]
        legendre = _legendre((t - a) / half - 1.0, self.w.size)
        part = half * np.sum(legendre * self.coef[j], axis=1)
        out[inside[~on_edge]] = acc[j] * np.exp(c2 * (a - t)) + np.exp(c2 * (b - t)) * part
        beyond = times > edges[-1]
        out[beyond] = acc[-1] * np.exp(c2 * (edges[-1] - times[beyond]))
        return out

    def _read(self, t):
        """O(t), dO/dt, t's panel j (t in (edges[j], edges[j + 1]]), and
        P_0..P_n at t and e^{c2 (b - t)}, None before lo2 or past t_hi."""
        t, c2, acc = float(t), self.c2, self.acc
        j = int(np.searchsorted(self.edges, t)) - 1
        if j < 0:
            return 0j, 0j, j, None, None
        if j == acc.size - 1:
            amp = acc[-1] * cmath.exp(c2 * (self.edges[-1] - t))
            return amp, -c2 * amp, j, None, None
        a, b, half = float(self.edges[j]), float(self.edges[j + 1]), float(self.half[j])
        p, dp = _legendre((t - a) / half - 1.0, self.w.size, derivatives=True)
        e = cmath.exp(c2 * (b - t))
        amp = acc[j + 1] if t == b else (acc[j] * cmath.exp(c2 * (a - t))
                                         + e * half * (p @ self.coef[j]))
        return amp, e * (dp @ self.coef[j]) - c2 * amp, j, p, e

    def at(self, t):
        """(dP_f/dt, P_f) at the time t."""
        amp, slope, *_ = self._read(t)
        return (2.0 * self.atom.gamma_e * self.atom.gamma_f * (amp.conjugate() * slope).real,
                float(_pf_from_amp(self.atom, abs(amp))))

    def gradient(self, t):
        """dP_f(t)/d(field) in field order, 2 ge gf Re(conj(O) dO) with dO read
        like O off G's derivative rows, plus the Leibniz term -e^{c2 (lo2 - t)}
        G(lo2+) of the lower limit lo2 that the delay moves (only the decaying
        family starts sharply; ends that move with the widths are below 1e-12)."""
        amp, _, j, p, e = self._read(t)
        if j < 0:
            return np.zeros(len(fields(self.state)))
        c2, dvals, half = self.c2, self.dvals, self.half
        damp = (half[:j] * (dvals[:, :j] @ self.w)) @ np.exp(c2 * (self.edges[1:j + 1] - t))
        if p is not None:
            damp = damp + e * half[j] * ((dvals[:, j] @ gl_antiderivative(self.w.size).T) @ p)
        if delay_field(type(self.state)):
            damp[-1] -= cmath.exp(c2 * (self.edges[0] - t)) * self.g_lo2
        return 2.0 * self.atom.gamma_e * self.atom.gamma_f * np.real(np.conj(amp) * damp)


def curve_amplitudes(atom: Atom, state, times):
    """Outer complex amplitudes O(t_k); P_f(t_k) = ge*gf*|O(t_k)|^2, read off
    `_OuterPanels` (one kernel call, however many times). ``times`` not
    strictly ascending raise ValueError: the amplitudes accumulate forward."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("scan times must be strictly ascending")
    lo2, hi2 = state.support2()
    if min(times[-1], hi2) <= lo2:
        return np.zeros(times.size, dtype=complex)
    return _OuterPanels(atom, state, times[-1]).amplitudes(times)


def _pf_from_amp(atom, amp):
    return atom.gamma_e * atom.gamma_f * np.abs(amp) ** 2


def pf_at(atom: Atom, state, t, method="fast"):
    """Excitation probability at time t, the interaction starting in the
    infinite past.

    method: "fast" (analytic inner + panel outer) or "quadrature" (nested
    adaptive reference to 1e-9 relative); any other value raises ValueError.
    """
    if method == "fast":
        amp = curve_amplitudes(atom, state, np.array([t]))[0]
        return float(_pf_from_amp(atom, abs(amp)))
    if method == "quadrature":
        return _pf_at_quadrature(atom, state, t, 1e-9)
    raise ValueError(f"unknown method {method!r}")


def _pf_at_quadrature(atom, state, t, rel_tol):
    """The reference route: the outer integral over t2 by `integrate`, and
    at each of its calls the inner integrals of all its nodes, to a tenth
    of ``rel_tol``, by one `integrate_batch`."""
    ge, gf, d1, d2 = atom.gamma_e, atom.gamma_f, atom.delta1, atom.delta2
    lo2 = state.support2()[0]
    hi2 = min(t, state.support2()[1])
    if hi2 <= lo2:
        return 0.0
    lo1, end1 = state.support1()
    bks = [tuple(state.breakpoints1())]

    def outer(t2):
        t2 = np.atleast_1d(t2)

        def f(tau, k):
            t2k = t2[k]
            return np.exp(1j * d1 * tau - 0.5 * ge * (t2k - tau)) * state.amplitude(t2k, tau)

        # an empty inner range [lo1, lo1] where t2 is at or below lo1
        hi1 = np.maximum(np.minimum(t2, end1), lo1)
        g = integrate_batch(f, np.full(t2.size, lo1), hi1, rel_tol * 0.1, bks * t2.size)
        return np.exp(1j * d2 * (t2 - t) - 0.5 * gf * (t - t2)) * g

    o = integrate(outer, lo2, hi2, rel_tol=rel_tol,
                  breakpoints=_outer_breakpoints(state))
    return float(_pf_from_amp(atom, abs(o)))


# ---------------------------------------------------------------------------
# curves and maxima
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcitationCurve:
    """Sampled excitation probability with its refined maximum."""

    times: np.ndarray
    probabilities: np.ndarray
    t_at_max: float
    p_max: float


def excitation_curve(atom: Atom, state, n_times=200):
    """Sample P_f at n_times times evenly over the transient bracket
    (`scan_bounds`) and refine the global maximum.

    A scan of fewer than 2 times cannot bracket the maximum: it raises
    ValueError.
    """
    if n_times < 2:
        raise ValueError(f"a scan needs at least 2 times, got {n_times}")
    return ExcitationCurve(*_max_with_scan(atom, state, n_times)[:4])


def _max_with_scan(atom, state, n_times, gradient=False):
    """(times, P_f there, t_max, p_max, panels): the `scan_bounds` scan's maximum
    refined on dP_f/dt, every sample, trial and derivative off one `_OuterPanels`."""
    times = np.linspace(*scan_bounds(atom, state), n_times)
    panels = _OuterPanels(atom, state, times[-1], gradient)
    probs = _pf_from_amp(atom, np.abs(panels.amplitudes(times)))
    i = int(np.argmax(probs))
    t_s, p_s = times[max(i - 1, 0):i + 2], probs[max(i - 1, 0):i + 2]
    hi2 = state.support2()[1]
    if t_s[0] < hi2 < t_s[-1]:
        # past the support end P only decays, and at the end its slope jumps:
        # the maximum lies at or before the end, so the end is the last sample
        keep = t_s < hi2
        t_s, p_s = np.append(t_s[keep], hi2), np.append(p_s[keep], panels.at(hi2)[1])
    s_s = [panels.at(t)[0] for t in t_s]
    t_max, p_max = refine_max(t_s, p_s, s_s, panels.at, 1e-6 / atom.gamma_f)
    return times, probs, t_max, p_max, panels


def pf_max_over_t(atom: Atom, state, gradient=False):
    """Global maximum of P_f over time: a 200-time scan, then the root of dP/dt.

    Returns (t_max, p_max), and with ``gradient`` also d p_max/d(field) for
    the state's fields in order (widths, then the delay): the slope vanishes
    at the maximum, so this is dP_f/d(field) at fixed t_max (envelope
    theorem), read off the scan's own panels. (t_max, p_max) are the same
    bit for bit with or without it.
    """
    _, _, t_max, p_max, panels = _max_with_scan(atom, state, 200, gradient)
    return (t_max, p_max, panels.gradient(t_max)) if gradient else (t_max, p_max)


# ---------------------------------------------------------------------------
# matched-filter inner product (resonant, t0 -> -inf)
# ---------------------------------------------------------------------------

_BLOCK_PAIRS = 1 << 14  # (t2, t1) node pairs per pass of `pf_inner_product`


def pf_inner_product(atom: Atom, state, t_star):
    """P_f(t_star) as the squared overlap with the matched weight.

    The weight is the amplitude of the atom's matched state
    ``OptimalState(atom, t_star)``, bounded by sqrt(gamma_e*gamma_f). Valid
    at resonance with the interaction starting in the infinite past. An
    oracle: it calls neither the fast route nor the adaptive quadrature.
    Both integrals use 32-point Gauss-Legendre panels. The outer nodes share
    one t1 grid, through the t1 kinks; the node t2 takes the panels below
    min(t2, end of support 1), cutting the last one there. The weight times
    ``state.amplitude`` is summed per outer node over blocks of whole
    panels, about ``_BLOCK_PAIRS`` (t2, t1) node pairs each.
    """
    if not atom.resonant:
        raise NotResonantError("inner-product form requires delta1 = delta2 = 0")
    ge, gf = atom.gamma_e, atom.gamma_f
    kern = OptimalState(atom, t_star).amplitude  # the matched weight
    depth = 60.0 / min(ge, gf)
    lo2 = max(state.support2()[0], t_star - depth)
    hi2 = min(t_star, state.support2()[1])
    if hi2 <= lo2:
        return 0.0
    lo1 = max(state.support1()[0], t_star - depth)
    h2 = min(2.0 / (ge + gf), state.t2_scale()) / 1.5
    nodes2, half2, w = panel_nodes(
        subdivide(lo2, hi2, h2, extra=_outer_breakpoints(state)), order=32)
    t2 = nodes2.ravel()
    hi1 = np.minimum(t2, state.support1()[1])  # inner limit per outer node
    if hi1.max() <= lo1:
        return 0.0
    h1 = min(2.0 / ge, state.t1_scale()) / 1.5
    edges1 = subdivide(lo1, hi1.max(), h1, extra=state.breakpoints1())
    # row i has the panels [e_k, min(e_k+1, hi1_i)] for e_k < hi1_i; all
    # panels are numbered row after row, and a block takes the next numbers
    n = np.searchsorted(edges1, hi1)
    end = np.cumsum(n)
    x, _ = gl_nodes(32)
    inner = np.zeros(t2.size, dtype=complex)
    step = max(1, _BLOCK_PAIRS // x.size)
    for s in range(0, end[-1], step):
        p = np.arange(s, min(s + step, end[-1]))  # panel numbers
        r = np.searchsorted(end, p, side="right")  # their rows
        k = p - end[r] + n[r]  # their places in the row
        a, b = edges1[k], np.minimum(edges1[k + 1], hi1[r])
        half = 0.5 * (b - a)
        t1 = (0.5 * (a + b))[:, None] + half[:, None] * x
        t2r = t2[r][:, None]
        np.add.at(inner, r, half * ((kern(t2r, t1) * state.amplitude(t2r, t1)) @ w))
    total = np.sum(half2 * (inner.reshape(nodes2.shape) @ w))
    return float(abs(total) ** 2)


# ---------------------------------------------------------------------------
# closed forms for the exponential families
# ---------------------------------------------------------------------------

def pf_rising_closed_form(atom: Atom, omega1, omega2, t):
    """Analytic P_f(t) for rising exponential pulses (any detuning)."""
    ge, gf, d1, d2 = atom.gamma_e, atom.gamma_f, atom.delta1, atom.delta2
    tt = min(t, 0.0)
    num = 16.0 * ge * gf * omega1 * omega2 * math.exp((omega1 + omega2) * tt)
    den = ((4.0 * d1**2 + (omega1 + ge) ** 2)
           * (4.0 * (d1 + d2) ** 2 + (omega1 + omega2 + gf) ** 2))
    val = num / den
    if t > 0:
        val *= math.exp(-gf * t)
    return val


def rising_optimal_params(atom: Atom):
    """Bandwidths maximizing the rising-exponential probability (resonant)."""
    if not atom.resonant:
        raise NotResonantError("optimal rising parameters assume resonance")
    ge, gf = atom.gamma_e, atom.gamma_f
    om1 = (math.sqrt(gf**2 + 8.0 * ge * gf) - gf) / 4.0
    return om1, om1 + gf


def pf_max_rising(atom: Atom):
    """(omega1, omega2, p_max) for optimally chosen rising exponentials."""
    om1, om2 = rising_optimal_params(atom)
    r = atom.ratio
    s = math.sqrt(1.0 + 8.0 * r)
    p = 64.0 * r * (s - 1.0) / ((4.0 * r + s - 1.0) ** 2 * (3.0 + s))
    return om1, om2, p


def pf_decaying_closed_form(atom: Atom, omega1, omega2, t_shift, t):
    """Analytic P_f(t) for decaying exponential pulses with a shifted second pulse.

    The textbook expression has removable singularities whenever the three
    complex rate differences a, b, c nearly vanish or nearly coincide; those
    neighborhoods are evaluated by panel quadrature of the equivalent
    one-dimensional integral instead.
    """
    ge, gf, d1, d2 = atom.gamma_e, atom.gamma_f, atom.delta1, atom.delta2
    L = max(t_shift, 0.0)  # first pulse starts at 0: no amplitude before both exist
    if t <= L:
        return 0.0
    a = 1j * d1 + 0.5 * (ge - omega1)
    b = 1j * d2 + 0.5 * (gf - ge - omega2)
    c = 1j * (d1 + d2) + 0.5 * (gf - omega1 - omega2)
    scale = 1e-4 * (ge + gf + omega1 + omega2)
    if min(abs(a), abs(b), abs(c)) > scale:
        # rebalanced: every exponent's real part is <= 0 on [L, t]
        r0 = -0.5 * gf * t + 0.5 * omega2 * t_shift
        bracket = (b * (np.exp(c * t + r0) - np.exp(c * L + r0))
                   - c * (np.exp(b * t + r0) - np.exp(b * L + r0)))
        return float(ge * gf * omega1 * omega2 * abs(bracket / (a * b * c)) ** 2)
    # near-singular: integrate e^{b t2} (e^{a t2} - 1)/a over [L, t]
    r0 = -0.5 * gf * t + 0.5 * omega2 * t_shift

    def f(t2):
        if abs(a) * max(abs(L), abs(t)) < 0.5:
            return np.exp(b * t2 + r0) * t2 * phi1(a * t2)
        return (np.exp(c * t2 + r0) - np.exp(b * t2 + r0)) / a

    h = 2.0 / max(ge, gf, omega1, omega2)
    total = gl_panels(f, subdivide(L, t, h), order=48)
    return float(ge * gf * omega1 * omega2 * abs(total) ** 2)


def pf_optimal_closed_form(atom: Atom, t, t_star=0.0, t0=-np.inf):
    """Analytic resonant P_f(t) for the matched state truncated at t0."""
    gf = atom.gamma_f
    h = t_star - t0
    bh = pmax_bound(atom, h) if np.isfinite(h) else 1.0
    if t <= t0:
        return 0.0
    if t <= t_star:
        return float(math.exp(gf * (t - t_star)) * pmax_bound(atom, t - t0) ** 2 / bh
                     if np.isfinite(t0)
                     else math.exp(gf * (t - t_star)))
    return float(bh * math.exp(-gf * (t - t_star)))


# ---------------------------------------------------------------------------
# residence time
# ---------------------------------------------------------------------------

def residence_time(atom: Atom, state):
    """Time integral of P_f: Simpson's rule on 4000 times over the support,
    plus the exact decay tail. The 4000 times cost one kernel pass over the
    outer panels (`curve_amplitudes`), not a panel per time.

    Beyond the amplitude support the probability decays exactly as
    e^{-gamma_f t}, so the tail contributes P(end)/gamma_f.
    """
    lo, hi_support = scan_bounds(atom, state, pad=0.0)
    if hi_support <= lo:
        return 0.0
    times = np.linspace(lo, hi_support, 4000)
    amps = curve_amplitudes(atom, state, times)
    probs = _pf_from_amp(atom, np.abs(amps))
    core = float(simpson(probs, x=times))
    tail = probs[-1] / atom.gamma_f
    return core + tail
