"""Final-state excitation probability for two-photon input states.

The probability at time t is a nested double integral of the joint temporal
amplitude against exponential memory kernels of the two decay rates. Two
routes are provided:

* a reference route evaluating both integrals with adaptive Gauss-Kronrod
  quadrature in a time-shifted form whose exponents are all nonpositive on
  the integration domain (mandatory for large rate*time products);
* a fast route that takes the inner integral in closed form from the state
  family (`decayed_inner`; complex scaled error functions for the Gaussian
  families, elementary exponentials otherwise) and accumulates the outer
  integral over Gauss-Legendre panels, sized by the family's time scales,
  with per-step exponential rebalancing.

The fast route is validated against the reference route to 1e-9 in the test
suite; closed-form expressions for the exponential families follow their own
algebraic derivations and serve as mutual cross-checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .model import Atom
from .numutil import phi1, refine_max
from .optimal import pmax_bound
from .quadrature import integrate, gl_panels, subdivide, _gl_nodes as _gl_nodes_cached
from .states import OptimalState, UnsupportedFamilyError


class NotResonantError(ValueError):
    """Operation requires delta1 = delta2 = 0."""


def decayed_inner(atom: Atom, state, t2):
    """Analytic inner integral G(t2), from the state family's own
    ``decayed_inner``: G(T2) = int_{tau <= T2} e^{i d1 tau - ge (T2-tau)/2}
    psi(T2, tau) for the driving atom."""
    inner = getattr(state, "decayed_inner", None)
    if inner is None:
        raise UnsupportedFamilyError(
            f"no analytic inner integral for {type(state).__name__}")
    return inner(atom, np.asarray(t2, dtype=float))


def scan_bounds(atom: Atom, state, t0=-np.inf, pad=None):
    """Bracket [lo, hi] containing the whole excitation transient."""
    lo = max(state.support1()[0], state.support2()[0], t0)
    hi = state.support2()[1] + (10.0 / atom.gamma_f if pad is None else pad)
    return lo, hi


def _fast_path_valid(state, t0):
    return t0 <= min(state.support1()[0], state.support2()[0])


def _outer_breakpoints(state):
    """Kinks along t2: the state's own, and the t1-support edges that the
    inner integral (running up to t2) carries over."""
    return tuple(state.breakpoints2()) + tuple(state.breakpoints1())


def _outer_edges(atom: Atom, state, lo, hi):
    rate = atom.gamma_e + atom.gamma_f + abs(atom.delta1) + abs(atom.delta2)
    h_max = min(4.0 / rate, 2.0 * state.inner_scale(atom),
                2.0 * state.t2_scale())
    return subdivide(lo, hi, h_max, extra=_outer_breakpoints(state))


def curve_amplitudes(atom: Atom, state, times, t0=-np.inf):
    """Outer complex amplitudes O(t_k); P_f(t_k) = ge*gf*|O(t_k)|^2.

    ``times`` must be ascending. Panel integrals are anchored at their right
    edges and accumulated with per-step decay factors, so every exponential
    stays bounded by one regardless of rate*time products. The inner
    integral is evaluated in a single vectorized call over all panel nodes.
    """
    c2 = 1j * atom.delta2 + 0.5 * atom.gamma_f
    times = np.asarray(times, dtype=float)
    lo2 = max(state.support2()[0], t0)
    hi2 = state.support2()[1]
    out = np.zeros(times.size, dtype=complex)
    t_hi = min(times[-1], hi2)
    if t_hi <= lo2:
        return out
    inside = (times > lo2) & (times <= t_hi)
    edges = _outer_edges(atom, state, lo2, t_hi)
    edges = np.unique(np.concatenate([edges, times[inside]]))

    x, w = _gl_nodes_cached(24)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    rights = edges[1:]
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = (np.exp(c2 * (nodes - rights[:, None]))
            * decayed_inner(atom, state, nodes.ravel()).reshape(nodes.shape))
    panel = half * (vals @ w)

    # sequential accumulation; every step factor has modulus <= 1
    decay = np.exp(c2 * (edges[:-1] - edges[1:]))
    acc = np.empty(panel.size, dtype=complex)
    run = 0.0 + 0.0j
    for j in range(panel.size):
        run = run * decay[j] + panel[j]
        acc[j] = run

    idx = np.searchsorted(edges, times[inside])  # times are edges: edges[idx] == t
    out[inside] = acc[idx - 1]
    beyond = times > t_hi
    if np.any(beyond):
        out[beyond] = acc[-1] * np.exp(c2 * (t_hi - times[beyond]))
    return out


def _pf_from_amp(atom, amp):
    return atom.gamma_e * atom.gamma_f * np.abs(amp) ** 2


def pf_at(atom: Atom, state, t, t0=-np.inf, method="auto", rel_tol=1e-9):
    """Excitation probability at time t for interaction starting at t0.

    method: "fast" (analytic inner + panel outer), "quadrature" (nested
    adaptive reference), or "auto" (fast whenever t0 lies at or below the
    state's support, quadrature otherwise); any other value raises
    ValueError.
    """
    if t <= t0:
        return 0.0
    if method == "auto":
        method = "fast" if _fast_path_valid(state, t0) else "quadrature"
    if method == "fast":
        if not _fast_path_valid(state, t0):
            raise ValueError("fast path requires t0 at or below the state support")
        amp = curve_amplitudes(atom, state, np.array([t]), t0=t0)[0]
        return float(_pf_from_amp(atom, abs(amp)))
    if method == "quadrature":
        return _pf_at_quadrature(atom, state, t, t0, rel_tol)
    raise ValueError(f"unknown method {method!r}")


def _inner_quadrature(atom, state, t2, t0, rel_tol):
    ge, d1 = atom.gamma_e, atom.delta1
    lo1 = max(state.support1()[0], t0)
    hi1 = min(t2, state.support1()[1])
    if hi1 <= lo1:
        return 0.0 + 0.0j
    f = lambda tau: np.exp(1j * d1 * tau - 0.5 * ge * (t2 - tau)) * state.amplitude(t2, tau)
    bks = tuple(state.breakpoints1()) + (t2,)
    return integrate(f, lo1, hi1, rel_tol=rel_tol, breakpoints=bks)


def _pf_at_quadrature(atom, state, t, t0, rel_tol):
    gf, d2 = atom.gamma_f, atom.delta2
    lo2 = max(state.support2()[0], t0)
    hi2 = min(t, state.support2()[1])
    if hi2 <= lo2:
        return 0.0
    cache = {}

    def g(t2):
        key = float(t2)
        if key not in cache:
            cache[key] = _inner_quadrature(atom, state, key, t0, rel_tol * 0.1)
        return cache[key]

    def outer(t2_arr):
        t2_arr = np.atleast_1d(t2_arr)
        vals = np.array([g(x) for x in t2_arr])
        return np.exp(1j * d2 * (t2_arr - t) - 0.5 * gf * (t - t2_arr)) * vals

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
    meta: dict = field(default_factory=dict)

    def to_csv(self, path, extra_comments=()):
        lines = [f"# {c}" for c in extra_comments]
        for key in ("gamma_e", "gamma_f", "delta1", "delta2", "state"):
            if key in self.meta:
                lines.append(f"# {key}: {self.meta[key]}")
        lines.append("t*gamma_f,P_f")
        for t, p in zip(self.times, self.probabilities):
            lines.append(f"{t:.12g},{p:.12g}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def excitation_curve(atom: Atom, state, times=None, t0=-np.inf, n_times=200):
    """Sample P_f over the transient bracket and refine the global maximum."""
    if times is None:
        lo, hi = scan_bounds(atom, state, t0)
        times = np.linspace(lo, hi, n_times)
    times = np.asarray(times, dtype=float)
    t_max, p_max, probs = _max_with_scan(atom, state, times, t0)
    return ExcitationCurve(times, probs, t_max, p_max,
                           meta={"state": state.to_dict(),
                                 "gamma_e": atom.gamma_e, "gamma_f": atom.gamma_f,
                                 "delta1": atom.delta1, "delta2": atom.delta2})


def _max_with_scan(atom, state, times, t0):
    """Scan maximum refined on the closed-form slope.

    With O(t) the outer amplitude, dO/dt = G(t) - c2 O(t) where G is the
    analytic inner integral (left-continuous at the support end, zero past
    it), so dP/dt = 2 ge gf Re(conj(O) (G - c2 O)) costs one kernel call per
    time. Trial amplitudes continue the scan from the bracket's left sample
    over the scan's own panel edges.
    """
    amps = curve_amplitudes(atom, state, times, t0=t0)
    probs = _pf_from_amp(atom, np.abs(amps))
    i = int(np.argmax(probs))
    win = slice(max(i - 1, 0), i + 2)
    ts, os_ = times[win], amps[win]
    c2 = 1j * atom.delta2 + 0.5 * atom.gamma_f
    lo2 = max(state.support2()[0], t0)
    hi2 = state.support2()[1]
    below_hi2 = np.nextafter(hi2, -np.inf)

    def inner(t2):
        g = decayed_inner(atom, state, np.minimum(t2, below_hi2))
        return np.where(t2 <= hi2, g, 0.0)

    def slope(amp, g):
        return 2.0 * atom.gamma_e * atom.gamma_f * np.real(np.conj(amp) * (g - c2 * amp))

    t_hi = min(times[-1], hi2)
    scan_edges = _outer_edges(atom, state, lo2, t_hi) if t_hi > lo2 else np.empty(0)

    def trial(k):
        a, amp_a = ts[k], os_[k]
        edges = scan_edges[(scan_edges > a) & (scan_edges < ts[k + 1])]

        def at(t):
            seg_hi = min(t, hi2)
            seg = np.concatenate(([a], edges[edges < seg_hi], [seg_hi])) \
                if seg_hi > a else ()
            g_t = 0.0  # stays 0 past the support end, where no panel is left

            def f(t2):
                nonlocal g_t
                # G at the panel nodes and at t itself in one kernel call
                g = inner(np.append(t2, t))
                g_t = g[-1]
                return np.exp(c2 * (t2 - t)) * g[:-1]

            amp = amp_a * np.exp(c2 * (a - t)) + gl_panels(f, seg, order=24)
            return slope(amp, g_t), float(_pf_from_amp(atom, abs(amp)))

        return at

    t_s, p_s, s_s = ts, probs[win], slope(os_, inner(ts))
    if ts[0] < hi2 < ts[-1]:
        # past the support end P only decays, and at the end its slope jumps:
        # the maximum lies at or before the end, so the end is the last sample
        k = int(np.searchsorted(ts, hi2)) - 1
        s_end, p_end = trial(k)(hi2)
        t_s = np.append(ts[:k + 1], hi2)
        p_s = np.append(p_s[:k + 1], p_end)
        s_s = np.append(s_s[:k + 1], s_end)
    t_max, p_max = refine_max(t_s, p_s, s_s, trial, 1e-6 / atom.gamma_f)
    return t_max, p_max, probs


def pf_max_over_t(atom: Atom, state, t0=-np.inf, n_scan=200):
    """Global maximum of P_f over time: coarse scan, then the root of dP/dt."""
    lo, hi = scan_bounds(atom, state, t0)
    times = np.linspace(lo, hi, n_scan)
    t_max, p_max, _ = _max_with_scan(atom, state, times, t0)
    return t_max, p_max


# ---------------------------------------------------------------------------
# matched-filter inner product (resonant, t0 -> -inf)
# ---------------------------------------------------------------------------

def pf_inner_product(atom: Atom, state, t_star, order=32):
    """P_f(t_star) as the squared overlap with the matched weight.

    The weight is the amplitude of the atom's matched state
    ``OptimalState(atom, t_star)``, bounded by sqrt(gamma_e*gamma_f). Valid
    at resonance with the interaction starting in the infinite past;
    evaluated with composite fixed-order Gauss-Legendre panels, a route
    independent of the adaptive nested quadrature.
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
    hi1_state = state.support1()[1]
    h2 = min(2.0 / (ge + gf), state.t2_scale()) / 1.5
    edges2 = subdivide(lo2, hi2, h2, extra=_outer_breakpoints(state))
    h1 = min(2.0 / ge, state.t1_scale()) / 1.5

    def inner(t2):
        hi1 = min(t2, hi1_state)
        if hi1 <= lo1:
            return 0.0 + 0.0j
        edges1 = subdivide(lo1, hi1, h1, extra=state.breakpoints1())
        f = lambda t1: kern(t2, t1) * state.amplitude(t2, t1)
        return gl_panels(f, edges1, order=order)

    total = 0.0 + 0.0j
    x, w = np.polynomial.legendre.leggauss(order)
    for a_, b_ in zip(edges2[:-1], edges2[1:]):
        mid, half = 0.5 * (a_ + b_), 0.5 * (b_ - a_)
        nodes = mid + half * x
        vals = np.array([inner(float(tn)) for tn in nodes])
        total += half * np.sum(w * vals)
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

def residence_time(atom: Atom, state, t0=-np.inf, n=4000):
    """Time integral of P_f: dense sampled curve plus the exact decay tail.

    Beyond the amplitude support the probability decays exactly as
    e^{-gamma_f t}, so the tail contributes P(end)/gamma_f.
    """
    lo, hi_support = scan_bounds(atom, state, t0, pad=0.0)
    if hi_support <= lo:
        return 0.0
    times = np.linspace(lo, hi_support, n)
    amps = curve_amplitudes(atom, state, times, t0=t0)
    probs = _pf_from_amp(atom, np.abs(amps))
    core = float(simpson(probs, x=times))
    tail = probs[-1] / atom.gamma_f
    return core + tail
