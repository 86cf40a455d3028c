"""Two-photon state families: the family table, amplitudes and entanglement.

Each family is one frozen dataclass and the only home of what the package
knows about it: its tag ``family``, its joint temporal amplitude
``amplitude(t2, t1)`` (zero outside support), an effective truncated
support per axis, the analytic inner integral ``decayed_inner`` of the fast
absorption route with the time scales that size its panels, the per-photon
marginal densities, and its dict form. ``FAMILIES`` maps each tag to its
class. A family is built from its fields by name (`from_fields`); the
spectral widths are the fields named ``omega*``, and the delay, where a
family has one, is the other field with a default (`delay_field`).
Entanglement is quantified through the Schmidt coefficients, either from
the closed form (entangled Gaussian) or by singular value decomposition of
the discretized amplitude.

Time-axis convention: argument order is (t2, t1) everywhere, with photon 1
driving the lower transition and photon 2 the upper one.
"""

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy import linalg
from scipy.special import erfcx

from . import optimal as _optimal
from .model import Atom, TimeWindow
from .numutil import phi1
from .quadrature import integrate

# Effective-support truncation: amplitude envelopes are cut where they fall
# below 1e-12 of their peak. For a Gaussian profile of temporal sigma s this
# is within +-9*sqrt(2)*s; for exponential profiles within 30 amplitude decay
# times (60/rate).
_GAUSS_CUT = 9.0 * math.sqrt(2.0)
_EXP_CUT = 60.0


class WindowTooSmallError(ValueError):
    """Window excludes more amplitude mass than the tolerance allows."""


class UnsupportedFamilyError(TypeError):
    """Operation not defined for this state family."""


class MissingParameterError(ValueError):
    """A family's field without a default was not given."""


class GridTooCoarseError(RuntimeError):
    """Doubling the SVD grid still changes the entropy beyond tolerance."""


def _gauss_tail(d, sigma):
    """P(|X| > d) for X ~ N(0, sigma^2); 0 when d <= 0 means full mass."""
    if d <= 0:
        return 1.0
    return math.erfc(d / (sigma * math.sqrt(2.0)))


def width_names(cls):
    """The spectral-width fields of a family (named ``omega*``), in order."""
    return tuple(f.name for f in fields(cls) if f.name.startswith("omega"))


def delay_field(cls):
    """(name, default) of a family's delay, the field besides its widths
    that has a default; None for a family without one."""
    for f in fields(cls):
        if f.default is not MISSING and not f.name.startswith("omega"):
            return f.name, f.default
    return None


def from_fields(cls, values):
    """Family ``cls`` built from a mapping that holds its fields by name.

    Other keys are ignored and absent fields take their defaults; an absent
    field without a default raises MissingParameterError.
    """
    missing = [f.name for f in fields(cls)
               if f.name not in values and f.default is MISSING]
    if missing:
        raise MissingParameterError(f"family {cls.family} needs {', '.join(missing)}")
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


# ---------------------------------------------------------------------------
# inner integral: G(T2) = int_{tau <= T2} e^{i d1 tau - ge (T2-tau)/2} psi(T2, tau)
# Each family's ``decayed_inner(atom, t2)`` evaluates it in closed form for
# the driving atom, with t2 a float array.
# ---------------------------------------------------------------------------

def _gauss_inner_kernel(X, om, ge, d1):
    """int_{-inf}^{X} exp(i d1 x - ge (X - x)/2) exp(-om^2 x^2 / 4) dx.

    Stable for arbitrarily large ge/om through the scaled complementary
    error function; branch chosen so every exponent has nonpositive real
    part.
    """
    X = np.asarray(X, dtype=float)
    z = 0.5 * ge + 1j * d1
    w = 0.5 * om * X - z / om
    lead = np.exp(1j * d1 * X - 0.25 * om**2 * X**2)
    safe = (-w).real >= 0.0
    out = np.empty(X.shape, dtype=complex)
    out[safe] = lead[safe] * erfcx(-w[safe])
    if np.any(~safe):
        # erfc(-w) = 2 - erfc(w); the doubled term's exponent
        # -ge*X/2 + z^2/om^2 has nonpositive real part on this branch
        Xu = X[~safe]
        out[~safe] = (2.0 * np.exp(-0.5 * ge * Xu + z * z / om**2)
                      - lead[~safe] * erfcx(w[~safe]))
    return (math.sqrt(math.pi) / om) * out


class _Parametric:
    """Validation, construction and dict form of a family from its fields."""

    def __post_init__(self):
        if not all(getattr(self, n) > 0 for n in width_names(type(self))):
            raise ValueError("spectral widths must be positive")

    @classmethod
    def from_dict(cls, d):
        return from_fields(cls, d)

    def to_dict(self):
        return {"family": self.family,
                **{f.name: getattr(self, f.name) for f in fields(self)}}


class _Product(_Parametric):
    """Unentangled pair: the amplitude is profile2(t2) * profile1(t1)."""

    def amplitude(self, t2, t1):
        return self.profile2(t2) * self.profile1(t1)

    def t1_scale(self):
        return 1.0 / self.omega1

    def marginal_densities(self):
        """Arrival-time densities of photon 1 and photon 2."""
        return (lambda t: np.abs(self.profile1(t)) ** 2,
                lambda t: np.abs(self.profile2(t)) ** 2)


@dataclass(frozen=True)
class GaussianProduct(_Product):
    """Unentangled Gaussian photons; photon 2 peaks a delay mu after photon 1."""

    family = "gaussian_product"
    omega1: float
    omega2: float
    mu: float = 0.0

    def profile1(self, t):
        t = np.asarray(t, dtype=float)
        return (self.omega1**2 / (2 * np.pi)) ** 0.25 * np.exp(
            -self.omega1**2 * t**2 / 4.0)

    def profile2(self, t):
        t = np.asarray(t, dtype=float)
        return (self.omega2**2 / (2 * np.pi)) ** 0.25 * np.exp(
            -self.omega2**2 * (t - self.mu) ** 2 / 4.0)

    def support1(self):
        w = _GAUSS_CUT / self.omega1
        return (-w, w)

    def support2(self):
        w = _GAUSS_CUT / self.omega2
        return (self.mu - w, self.mu + w)

    def breakpoints1(self):
        return (0.0,)

    def breakpoints2(self):
        return (self.mu,)

    def tail_mass_outside(self, window):
        s1, s2 = 1.0 / self.omega1, 1.0 / self.omega2
        d1 = min(-window.t_start, window.t_end)
        d2 = min(self.mu - window.t_start, window.t_end - self.mu)
        return _gauss_tail(d1, s1) + _gauss_tail(d2, s2)

    def decayed_inner(self, atom, t2):
        pref = (self.omega1**2 / (2 * np.pi)) ** 0.25
        return self.profile2(t2) * pref * _gauss_inner_kernel(
            t2, self.omega1, atom.gamma_e, atom.delta1)

    def t2_scale(self):
        return 1.0 / self.omega2

    def inner_scale(self, atom):
        """Smallest variation scale of the inner integral along t2."""
        return min(1.0 / self.omega1, 1.0 / self.omega2)


@dataclass(frozen=True)
class EntangledGaussian(_Parametric):
    """Gaussian amplitude in the sum/difference time coordinates.

    omega_plus is the spectral width of the frequency-sum distribution,
    omega_minus of the frequency-difference one; the state is a product
    exactly when the two coincide.
    """

    family = "entangled_gaussian"
    omega_plus: float
    omega_minus: float
    mu: float = 0.0

    @property
    def sigma_t2(self):
        """Marginal temporal variance (same for both photons)."""
        op2, om2 = self.omega_plus**2, self.omega_minus**2
        return (op2 + om2) / (2.0 * op2 * om2)

    @property
    def sigma_w2(self):
        """Marginal spectral variance (same for both photons)."""
        return (self.omega_plus**2 + self.omega_minus**2) / 8.0

    def amplitude(self, t2, t1):
        t2 = np.asarray(t2, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        u = t2 - self.mu + t1
        v = t2 - self.mu - t1
        pref = math.sqrt(self.omega_plus * self.omega_minus / (2 * np.pi))
        return pref * np.exp(-self.omega_plus**2 * u**2 / 8.0
                             - self.omega_minus**2 * v**2 / 8.0)

    def support1(self):
        w = _GAUSS_CUT * math.sqrt(self.sigma_t2)
        return (-w, w)

    def support2(self):
        w = _GAUSS_CUT * math.sqrt(self.sigma_t2)
        return (self.mu - w, self.mu + w)

    def breakpoints1(self):
        return (0.0,)

    def breakpoints2(self):
        return (self.mu,)

    def tail_mass_outside(self, window):
        s = math.sqrt(self.sigma_t2)
        d1 = min(-window.t_start, window.t_end)
        d2 = min(self.mu - window.t_start, window.t_end - self.mu)
        return _gauss_tail(d1, s) + _gauss_tail(d2, s)

    def _ridge(self):
        """Width q of the inner Gaussian and slope kappa of its ridge."""
        op2 = self.omega_plus**2
        om2 = self.omega_minus**2
        return math.sqrt(0.5 * (op2 + om2)), (om2 - op2) / (om2 + op2)

    def decayed_inner(self, atom, t2):
        ge, d1 = atom.gamma_e, atom.delta1
        op2 = self.omega_plus**2
        om2 = self.omega_minus**2
        q, kappa = self._ridge()
        tau = t2 - self.mu
        m = kappa * tau
        env = math.sqrt(self.omega_plus * self.omega_minus / (2 * np.pi)) * np.exp(
            -(tau**2) * op2 * om2 / (2.0 * (op2 + om2)))
        return env * np.exp(1j * d1 * m) * _gauss_inner_kernel(t2 - m, q, ge, d1)

    def t1_scale(self):
        return math.sqrt(self.sigma_t2)

    t2_scale = t1_scale

    def inner_scale(self, atom):
        q, kappa = self._ridge()
        ridge = (2.0 / q) / max(abs(1.0 - kappa), 1e-9)
        return min(ridge, math.sqrt(self.sigma_t2))

    def marginal_densities(self):
        s2 = self.sigma_t2
        return (lambda t: np.exp(-t**2 / (2 * s2)) / np.sqrt(2 * np.pi * s2),
                lambda t: np.exp(-(t - self.mu) ** 2 / (2 * s2)) / np.sqrt(2 * np.pi * s2))


@dataclass(frozen=True)
class RisingExpProduct(_Product):
    """Unentangled photons with rising exponential profiles ending at t = 0."""

    family = "rising_exp"
    omega1: float
    omega2: float

    def profile1(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 0, np.sqrt(self.omega1) * np.exp(self.omega1 * t / 2.0), 0.0)

    def profile2(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 0, np.sqrt(self.omega2) * np.exp(self.omega2 * t / 2.0), 0.0)

    def support1(self):
        return (-_EXP_CUT / self.omega1, 0.0)

    def support2(self):
        return (-_EXP_CUT / self.omega2, 0.0)

    def breakpoints1(self):
        return (0.0,)

    def breakpoints2(self):
        return (0.0,)

    def tail_mass_outside(self, window):
        # all mass sits in t <= 0; only the lower edge can cut it
        m1 = math.exp(self.omega1 * min(window.t_start, 0.0))
        m2 = math.exp(self.omega2 * min(window.t_start, 0.0))
        if window.t_start >= 0:
            return 2.0
        if window.t_end < 0:
            m1 += 1.0 - math.exp(self.omega1 * window.t_end)
            m2 += 1.0 - math.exp(self.omega2 * window.t_end)
        return m1 + m2

    def decayed_inner(self, atom, t2):
        ge, d1 = atom.gamma_e, atom.delta1
        pole = 1j * d1 + 0.5 * (ge + self.omega1)
        g1 = np.where(
            t2 <= 0,
            math.sqrt(self.omega1) * np.exp((1j * d1 + 0.5 * self.omega1) * t2) / pole,
            math.sqrt(self.omega1) * np.exp(-0.5 * ge * np.maximum(t2, 0.0)) / pole)
        return self.profile2(t2) * g1

    def t2_scale(self):
        return 2.0 / self.omega2

    def inner_scale(self, atom):
        return 2.0 / max(self.omega1, self.omega2)


@dataclass(frozen=True)
class DecayingExpProduct(_Product):
    """Unentangled decaying exponentials; pulse 2 starts at t_shift."""

    family = "decaying_exp"
    omega1: float
    omega2: float
    t_shift: float = 0.0

    def profile1(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, np.sqrt(self.omega1) * np.exp(-self.omega1 * t / 2.0), 0.0)

    def profile2(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= self.t_shift,
                        np.sqrt(self.omega2) * np.exp(-self.omega2 * (t - self.t_shift) / 2.0),
                        0.0)

    def support1(self):
        return (0.0, _EXP_CUT / self.omega1)

    def support2(self):
        return (self.t_shift, self.t_shift + _EXP_CUT / self.omega2)

    def breakpoints1(self):
        return (0.0,)

    def breakpoints2(self):
        return (self.t_shift,)

    def tail_mass_outside(self, window):
        m1 = math.exp(-self.omega1 * max(window.t_end, 0.0))
        m2 = math.exp(-self.omega2 * max(window.t_end - self.t_shift, 0.0))
        if window.t_start > 0:
            m1 += 1.0 - math.exp(-self.omega1 * window.t_start)
        if window.t_start > self.t_shift:
            m2 += 1.0 - math.exp(-self.omega2 * (window.t_start - self.t_shift))
        return m1 + m2

    def decayed_inner(self, atom, t2):
        ge, d1 = atom.gamma_e, atom.delta1
        a = 1j * d1 + 0.5 * (ge - self.omega1)
        tpos = np.maximum(t2, 0.0)
        small = np.abs(a * tpos) < 0.5
        g1 = np.empty(tpos.shape, dtype=complex)
        g1[small] = (np.exp(-0.5 * ge * tpos[small]) * tpos[small]
                     * phi1(a * tpos[small]))
        tb = tpos[~small]
        g1[~small] = (np.exp((1j * d1 - 0.5 * self.omega1) * tb)
                      - np.exp(-0.5 * ge * tb)) / a
        return self.profile2(t2) * math.sqrt(self.omega1) * np.where(t2 >= 0, g1, 0.0)

    def t2_scale(self):
        return 2.0 / self.omega2

    def inner_scale(self, atom):
        return 2.0 / max(self.omega1, self.omega2)


@dataclass(frozen=True)
class OptimalState:
    """Atom-matched state achieving perfect excitation at t_star.

    Supported on t0 < t1 < t2 < t_star; t0 = -inf selects the idealized
    state that saturates the probability at exactly 1.
    """

    family = "optimal"
    atom: Atom
    t_star: float = 0.0
    t0: float = -np.inf

    def __post_init__(self):
        if not self.t0 < self.t_star:
            raise ValueError("t0 must be < t_star")

    @property
    def _prefactor(self):
        a = self.atom
        h = self.t_star - self.t0
        bound = _optimal.pmax_bound(a, h) if np.isfinite(h) else 1.0
        return math.sqrt(a.gamma_e * a.gamma_f / bound)

    def amplitude(self, t2, t1):
        a = self.atom
        t2 = np.asarray(t2, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        # exponent relative to t_star is <= 0 on the whole support
        expo = (0.5 * (a.gamma_f - a.gamma_e) * (t2 - self.t_star)
                + 0.5 * a.gamma_e * (t1 - self.t_star))
        inside = (t1 < t2) & (t2 < self.t_star) & (t1 > self.t0)
        return np.where(inside, self._prefactor * np.exp(np.where(inside, expo, 0.0)), 0.0)

    def support1(self):
        # the first-photon arrival density decays at min(gamma_e, gamma_f)
        a = self.atom
        lo = self.t_star - _EXP_CUT / min(a.gamma_e, a.gamma_f)
        return (max(lo, self.t0), self.t_star)

    def support2(self):
        # the second-photon arrival density decays at gamma_f exactly
        lo = self.t_star - _EXP_CUT / self.atom.gamma_f
        return (max(lo, self.t0), self.t_star)

    def breakpoints1(self):
        pts = [self.t_star]
        if np.isfinite(self.t0):
            pts.append(self.t0)
        return tuple(pts)

    breakpoints2 = breakpoints1

    def tail_mass_outside(self, window):
        a = self.atom
        if window.t_end < self.t_star:
            return 1.0
        d = self.t_star - window.t_start
        if np.isfinite(self.t0) and window.t_start <= self.t0:
            return 0.0
        # arrival-time marginals bound the per-axis tails
        p1_tail = _optimal.arrival_time_tail(a, d)
        p2_tail = math.exp(-a.gamma_f * d) if d > 0 else 1.0
        return p1_tail + p2_tail

    def decayed_inner(self, atom, t2):
        ge, d1 = atom.gamma_e, atom.delta1
        gf_s, ge_s = self.atom.gamma_f, self.atom.gamma_e
        # the driving atom's memory rate and the state's own rate both enter
        dd = 1j * d1 + 0.5 * (ge + ge_s)
        pref = self._prefactor / dd
        term1 = np.exp(0.5 * gf_s * (t2 - self.t_star) + 1j * d1 * t2)
        if np.isfinite(self.t0):
            term2 = np.exp(0.5 * gf_s * (t2 - self.t_star)
                           - 0.5 * (ge + ge_s) * (t2 - self.t0)
                           + 1j * d1 * self.t0)
        else:
            term2 = 0.0
        inside = (t2 > self.t0) & (t2 < self.t_star)
        return np.where(inside, pref * (term1 - term2), 0.0)

    def t1_scale(self):
        return 2.0 / min(self.atom.gamma_e, self.atom.gamma_f)

    def t2_scale(self):
        return 2.0 / self.atom.gamma_f

    def inner_scale(self, atom):
        return 2.0 / (atom.gamma_e + self.atom.gamma_e + self.atom.gamma_f)

    def marginal_densities(self):
        _, p1, p2 = _optimal.arrival_densities(self.atom, self.t_star)
        return p1, p2

    def to_dict(self):
        return {"family": self.family, "gamma_e": self.atom.gamma_e,
                "gamma_f": self.atom.gamma_f, "t_star": self.t_star,
                "t0": None if not np.isfinite(self.t0) else self.t0}

    @classmethod
    def from_dict(cls, d):
        return cls(Atom(d["gamma_e"], d["gamma_f"]), d.get("t_star", 0.0),
                   -np.inf if d.get("t0") is None else d["t0"])


FAMILIES = {cls.family: cls for cls in (GaussianProduct, EntangledGaussian,
                                        RisingExpProduct, DecayingExpProduct,
                                        OptimalState)}


def state_from_dict(d):
    """Inverse of each family's to_dict; raises on unknown family tags."""
    try:
        cls = FAMILIES[d.get("family")]
    except KeyError as exc:
        raise UnsupportedFamilyError(
            f"unknown family {d.get('family')!r}; choose from {', '.join(FAMILIES)}") from exc
    return cls.from_dict(d)


def norm_check(state, window: TimeWindow | None = None, rel_tol=1e-10):
    """Two-dimensional quadrature of |amplitude|^2 over the window.

    The returned value is 1 within 1e-8 for every valid family. Raises
    WindowTooSmallError when the analytic tail estimate outside the window
    exceeds 1e-10.
    """
    if window is None:
        lo = min(state.support1()[0], state.support2()[0])
        hi = max(state.support1()[1], state.support2()[1])
        window = TimeWindow(lo - 1e-9, hi + 1e-9)
    elif state.tail_mass_outside(window) > 1e-10:
        raise WindowTooSmallError(
            "window excludes more than 1e-10 of the amplitude mass")

    lo1 = max(window.t_start, state.support1()[0])
    hi1 = min(window.t_end, state.support1()[1])
    lo2 = max(window.t_start, state.support2()[0])
    hi2 = min(window.t_end, state.support2()[1])
    bk1 = state.breakpoints1()

    def inner(t2):
        f = lambda t1: np.abs(state.amplitude(t2, t1)) ** 2
        bks = tuple(bk1) + (t2,)
        return integrate(f, lo1, hi1, rel_tol=rel_tol, breakpoints=bks).real

    def outer(t2_arr):
        return np.array([inner(float(t2)) for t2 in np.atleast_1d(t2_arr)])

    val = integrate(outer, lo2, hi2, rel_tol=rel_tol,
                    breakpoints=state.breakpoints2())
    return float(val.real)


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt coefficients (nonnegative, nonincreasing) and entropy in bits."""

    coefficients: np.ndarray
    entropy_bits: float
    truncation_error: float

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", c)


def _entropy_from_weights(w):
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log2(w)))


def schmidt_analytic(state: EntangledGaussian, n_max=64):
    """Closed-form Schmidt data for the entangled Gaussian family.

    Coefficient magnitudes follow a geometric law with ratio set by the
    width asymmetry; the entropy has the closed logarithmic form in
    y = (om_minus - om_plus)^2 / (om_minus + om_plus)^2.
    """
    if not isinstance(state, EntangledGaussian):
        raise UnsupportedFamilyError("closed-form Schmidt data requires the "
                                     "entangled Gaussian family")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    op, om = state.omega_plus, state.omega_minus
    y = ((om - op) / (om + op)) ** 2
    if y < np.finfo(float).eps:
        y = 0.0  # 1 - y rounds to 1: a product state to double precision
    n = np.arange(n_max + 1)
    coeff = 2.0 * math.sqrt(op * om) / (op + om) * (math.sqrt(y)) ** n
    if y == 0.0:
        entropy = 0.0
    else:
        entropy = -math.log2(1.0 - y) - y / (1.0 - y) * math.log2(y)
    trunc = y ** (n_max + 1)
    return SchmidtResult(coeff, entropy, trunc)


def hermite_mode(state: EntangledGaussian, n):
    """n-th Schmidt mode of the entangled Gaussian (photon-1 convention).

    Uses the normalized Hermite-function recurrence, which stays finite far
    beyond the n ~ 85 overflow point of the explicit-factorial form.
    """
    scale = math.sqrt(state.omega_plus * state.omega_minus / 2.0)

    def mode(t):
        x = scale * np.asarray(t, dtype=float)
        h_prev = np.pi ** -0.25 * np.exp(-x**2 / 2.0)
        if n == 0:
            h = h_prev
        else:
            h = math.sqrt(2.0) * x * h_prev
            for k in range(1, n):
                h, h_prev = (math.sqrt(2.0 / (k + 1)) * x * h
                             - math.sqrt(k / (k + 1)) * h_prev), h
        return math.sqrt(scale) * h

    return mode


def _graded_axis(lo, hi, n, fine_scale, order=8):
    """Composite Gauss-Legendre nodes graded geometrically toward hi.

    Panel widths grow away from hi so a kernel with a fast scale near hi and
    a slow decaying tail is resolved with n total nodes.
    """
    span = hi - lo
    panels = max(4, n // order)
    w0 = min(fine_scale / 4.0, span / panels)
    if w0 * panels >= span * 0.999:
        edges = np.linspace(lo, hi, panels + 1)
    else:
        r_lo, r_hi = 1.0 + 1e-9, 8.0
        for _ in range(80):  # bisect growth factor to fill the span
            r = 0.5 * (r_lo + r_hi)
            total = w0 * (r**panels - 1.0) / (r - 1.0)
            if total < span:
                r_lo = r
            else:
                r_hi = r
        widths = w0 * r ** np.arange(panels)
        edges = hi - np.concatenate([[0.0], np.cumsum(widths)])[::-1]
        edges[0] = lo
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _numeric_schmidt_once(state, n, window1, window2):
    if isinstance(state, OptimalState):
        return _schmidt_once_optimal(state, n, window1, window2)
    t1 = np.linspace(window1.t_start, window1.t_end, n)
    t2 = np.linspace(window2.t_start, window2.t_end, n)
    d1 = t1[1] - t1[0]
    d2 = t2[1] - t2[0]
    kern = state.amplitude(t2[:, None], t1[None, :]) * math.sqrt(d1 * d2)
    sv = linalg.svdvals(np.asarray(kern, dtype=float))
    w = sv**2
    return sv, _entropy_from_weights(w), max(1.0 - float(np.sum(w)), 0.0)


def _schmidt_once_optimal(state, n, window1, window2):
    """Schmidt data for the triangular-support amplitude.

    The amplitude jumps to zero across t1 = t2, so plain node sampling
    converges only linearly in the spacing. In the slow-intermediate regime
    (gamma_e << gamma_f) a grid graded toward t_star resolves the jump where
    it matters; otherwise cell-centered nodes are used with the cut cells
    replaced by their exact covered fraction, restoring quadratic
    convergence.
    """
    a = state.atom
    if a.gamma_e < a.gamma_f / 3.0:
        fine = 2.0 / max(a.gamma_e, a.gamma_f)
        t1, w1 = _graded_axis(window1.t_start, window1.t_end, n, fine)
        t2, w2 = _graded_axis(window2.t_start, window2.t_end, n, fine)
        kern = (np.sqrt(w2)[:, None] * state.amplitude(t2[:, None], t1[None, :])
                * np.sqrt(w1)[None, :])
    else:
        h1 = (window1.t_end - window1.t_start) / n
        h2 = (window2.t_end - window2.t_start) / n
        t1 = window1.t_start + h1 * (np.arange(n) + 0.5)
        t2 = window2.t_start + h2 * (np.arange(n) + 0.5)
        kern = state.amplitude(t2[:, None], t1[None, :])
        # cell cut by the support edge t1 = t2: weight by the covered
        # fraction, evaluated at the covered sub-cell's midpoint
        jstar = np.floor((t2 - window1.t_start) / h1).astype(int)
        inside = (jstar >= 0) & (jstar < n)
        rows = np.nonzero(inside)[0]
        cols = jstar[inside]
        delta = t2[rows] - (window1.t_start + cols * h1)
        mid = window1.t_start + cols * h1 + 0.5 * delta
        kern[rows, cols] = state.amplitude(t2[rows], mid) * (delta / h1)
        kern *= math.sqrt(h1 * h2)
    sv = linalg.svdvals(np.asarray(kern, dtype=float))
    w = sv**2
    return sv, _entropy_from_weights(w), max(1.0 - float(np.sum(w)), 0.0)


def schmidt_numeric(state, window1=None, window2=None, n=400,
                    entropy_tol=1e-4, max_n=3200):
    """Schmidt data by SVD of the square-root-of-weight discretized amplitude.

    The grid doubles until the entropy moves less than entropy_tol between
    refinements; GridTooCoarseError is raised if max_n is reached first.
    """
    if window1 is None:
        window1 = TimeWindow(*state.support1())
    if window2 is None:
        window2 = TimeWindow(*state.support2())
    sv, ent, trunc = _numeric_schmidt_once(state, n, window1, window2)
    while True:
        n2 = 2 * n
        if n2 > max_n:
            raise GridTooCoarseError(
                f"entropy not converged to {entropy_tol} at n={n}")
        sv2, ent2, trunc2 = _numeric_schmidt_once(state, n2, window1, window2)
        if abs(ent2 - ent) <= entropy_tol:
            keep = sv2[sv2 > 1e-12]
            return SchmidtResult(keep, ent2, trunc2)
        n, sv, ent, trunc = n2, sv2, ent2, trunc2


@dataclass(frozen=True)
class SpectralDensities:
    """Frequency-domain densities in detuning coordinates (zero at resonance)."""

    marginal1: object
    marginal2: object
    sum_density: object
    diff_density: object
    labels: dict = field(default_factory=dict)


def _gaussian_density(sigma2):
    def dens(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-x**2 / (2.0 * sigma2)) / math.sqrt(2.0 * np.pi * sigma2)
    return dens


def _pm_density(om):
    def dens(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x / om) ** 2) / (math.sqrt(np.pi) * om)
    return dens


def spectral_densities(state):
    """Marginal, sum, and difference frequency densities for the state.

    Supported for the entangled Gaussian (Gaussian densities) and the
    optimal state (Lorentzians of the atomic linewidths); the exponential
    product families are not covered.
    """
    if isinstance(state, EntangledGaussian):
        return SpectralDensities(
            marginal1=_gaussian_density(state.sigma_w2),
            marginal2=_gaussian_density(state.sigma_w2),
            sum_density=_pm_density(state.omega_plus),
            diff_density=_pm_density(state.omega_minus),
            labels={"sum_fwhm": 2 * math.sqrt(math.log(2)) * state.omega_plus,
                    "diff_fwhm": 2 * math.sqrt(math.log(2)) * state.omega_minus},
        )
    if isinstance(state, OptimalState):
        a = state.atom
        return SpectralDensities(
            marginal1=_optimal.spectral_marginal_1(a),
            marginal2=_optimal.spectral_marginal_2(a),
            sum_density=_optimal.sum_diff_densities(a)[0],
            diff_density=_optimal.sum_diff_densities(a)[1],
            labels={"sum_fwhm": a.gamma_f,
                    "diff_fwhm": a.gamma_f + 2 * a.gamma_e},
        )
    raise UnsupportedFamilyError(
        f"spectral densities not available for {type(state).__name__}")
