"""Closed-form reference quantities of the perfectly exciting state.

Everything here is analytic: the maximal-probability bound as a function of
the available interaction horizon, the Lorentzian spectral densities, the
photon arrival-time statistics, and the normalization of the truncated
matched amplitude. Spectral quantities are expressed in detuning coordinates
relative to the respective atomic transition; the densities below assume the
resonant reference (delta1 = delta2 = 0).
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv

from .model import Atom
from .numutil import phi1


def pmax_bound(atom: Atom, horizon):
    """Largest excitation probability reachable with horizon t_star - t0.

    Evaluated through an expm1-based form that is exact in the equal-rate
    limit and continuous in the rates; infinite horizon gives 1.
    """
    ge, gf = atom.gamma_e, atom.gamma_f
    h = np.asarray(horizon, dtype=float)
    if np.any(h < 0):
        raise ValueError("horizon must be >= 0")
    hfin = np.where(np.isinf(h), 0.0, h)
    # e^{-ge h} phi1((ge - gf) h) = e^{-gf h} phi1((gf - ge) h); the second
    # form takes over where the first one's phi1 would overflow (ge >> gf)
    near = (ge - gf) * hfin < 700.0
    p1 = np.real(phi1(np.where(near, ge - gf, gf - ge) * hfin))
    val = np.where(near,
                   1.0 - np.exp(-ge * hfin) * (1.0 + ge * hfin * p1),
                   1.0 - np.exp(-ge * hfin) - ge * hfin * np.exp(-gf * hfin) * p1)
    out = np.where(np.isinf(h), 1.0, val)
    return float(out) if out.ndim == 0 else out


def _lorentzian(fwhm):
    def dens(x):
        x = np.asarray(x, dtype=float)
        return fwhm / (2.0 * np.pi * (x**2 + fwhm**2 / 4.0))
    return dens


def spectral_marginal_1(atom: Atom):
    """Density of delta_1 = omega_1 - omega_eg: Lorentzian of FWHM gamma_e."""
    return _lorentzian(atom.gamma_e)


def spectral_marginal_2(atom: Atom):
    """Density of delta_2 = omega_2 - omega_fe: Lorentzian of FWHM gamma_e + gamma_f."""
    return _lorentzian(atom.gamma_e + atom.gamma_f)


def conditional_2_given_1(atom: Atom, delta1_value):
    """Density of delta_2 given delta_1: Lorentzian of FWHM gamma_f at -delta_1."""
    lor = _lorentzian(atom.gamma_f)

    def dens(x):
        return lor(np.asarray(x, dtype=float) + delta1_value)

    return dens


def sum_diff_densities(atom: Atom):
    """Densities of the frequency sum (FWHM gamma_f) and difference (gamma_f + 2 gamma_e)."""
    return (_lorentzian(atom.gamma_f),
            _lorentzian(atom.gamma_f + 2.0 * atom.gamma_e))


def arrival_densities(atom: Atom, t_star=0.0):
    """Joint and marginal arrival-time densities of the matched photons.

    p_joint lives on t1 < t2 <= t_star; the marginals are its exact
    integrals. All evaluators vanish above t_star.
    """
    ge, gf = atom.gamma_e, atom.gamma_f

    def p_joint(t2, t1):
        t2 = np.asarray(t2, dtype=float)
        t1 = np.asarray(t1, dtype=float)
        val = gf * ge * np.exp(-gf * (t_star - t2) - ge * (t2 - t1))
        return np.where((t1 < t2) & (t2 <= t_star), val, 0.0)

    def p1(t1):
        tau = t_star - np.asarray(t1, dtype=float)
        val = ge * gf * np.exp(-ge * tau) * tau * phi1(-(gf - ge) * tau).real
        return np.where(tau > 0, val, 0.0)

    def p2(t2):
        tau = t_star - np.asarray(t2, dtype=float)
        return np.where(tau >= 0, gf * np.exp(-gf * tau), 0.0)

    return p_joint, p1, p2


def arrival_expectations(atom: Atom, t_star=0.0):
    """Expected arrival times (tau1, tau2); their gap is 1/gamma_e."""
    ge, gf = atom.gamma_e, atom.gamma_f
    return (t_star - 1.0 / ge - 1.0 / gf, t_star - 1.0 / gf)


def _bessel_zeros(nu, k_max):
    grid = np.concatenate([np.logspace(-8, 0, 80),
                           np.arange(1.0, (k_max + nu / 2 + 3) * np.pi, 0.2)])
    f = jv(nu, grid)
    sign = np.sign(f)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0][:k_max]
    return np.array([brentq(lambda z: jv(nu, z), grid[i], grid[i + 1],
                            xtol=1e-14, rtol=8.9e-16) for i in idx])


def optimal_schmidt_weights(atom: Atom, n_modes=64):
    """Exact squared Schmidt coefficients of the matched state (t0 -> -inf).

    The reduced one-photon kernel has Green's-function structure; its
    eigenproblem maps onto the Bessel equation of order
    nu = gamma_e/gamma_f - 1, giving weights 4*(gamma_e/gamma_f)/j_{nu,k}^2
    at the k-th positive Bessel zero. The full weight sum is exactly 1 by
    the classical zero-sum identity.
    """
    r = atom.ratio
    j = _bessel_zeros(r - 1.0, n_modes)
    return 4.0 * r / j**2


def optimal_entropy_bits(atom: Atom, n_modes=2500):
    """Entanglement entropy of the matched state, in bits.

    The weight spectrum decays harmonically, so the entropy sum is completed
    with the analytic tail integral over the McMahon zero asymptotics;
    n_modes = 2500 pins the result to ~1e-6 bits.
    """
    r = atom.ratio
    nu = r - 1.0
    lam = optimal_schmidt_weights(atom, n_modes)
    s = float(-np.sum(lam * np.log2(lam)))
    # analytic completion: lambda(k) ~ 4r / (pi*kappa)^2, kappa = k + nu/2 - 1/4
    kappa0 = n_modes + 0.5 + nu / 2.0 - 0.25
    c = -math.log2(4.0 * r)
    tail = (4.0 * r / math.pi**2) * (
        (2.0 / math.log(2.0)) * (math.log(math.pi * kappa0) + 1.0) + c) / kappa0
    return s + tail


def optimal_normalization(atom: Atom, t_star=0.0, t0=-np.inf):
    """Normalization factor of the matched amplitude on (t0, t_star).

    Defined so that the squared amplitude with prefactor 1/sqrt(N)
    integrates to one; reduces to e^{gamma_f t_star}/(gamma_e gamma_f) as
    t0 -> -inf. Stable at equal rates.
    """
    ge, gf = atom.gamma_e, atom.gamma_f
    if not t0 < t_star:
        raise ValueError("t0 must be < t_star")
    h = t_star - t0
    bound = pmax_bound(atom, h) if np.isfinite(h) else 1.0
    return math.exp(gf * t_star) * bound / (ge * gf)
