"""Small numerical helpers shared across modules."""

import math

import numpy as np
from scipy.optimize import brentq


def phi1(z):
    """Evaluate (exp(z) - 1)/z, stable near z = 0, for real or complex input.

    Accepts scalars or arrays; the limit value at z = 0 is 1.
    """
    z = np.asarray(z)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty(z.shape, dtype=complex if np.iscomplexobj(z) else float)
    small = np.abs(z) < 1e-5
    zs = z[small]
    # cubic Taylor term keeps the error below 4e-22 at |z| = 1e-5
    out[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    zb = z[~small]
    if np.iscomplexobj(z):
        # exp(z) - 1 without the cancellation of exp(z) - 1 near 0:
        # Re = expm1(x) cos y - 2 sin^2(y/2), Im = e^x sin y
        x, y = zb.real, zb.imag
        out[~small] = (np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2
                       + 1j * np.exp(x) * np.sin(y)) / zb
    else:
        out[~small] = np.expm1(zb) / zb
    return out[0] if scalar else out


# Taylor coefficients 1/(k! (k+2)) of phi1'; at |z| < 0.5 the first omitted
# term is below 2e-18
_DPHI1_TAYLOR = 1.0 / np.array([math.factorial(k) * (k + 2) for k in range(16)])


def dphi1(z):
    """Evaluate phi1'(z) = int_0^1 s e^{zs} ds by its Taylor series, for
    |z| < 0.5 only, where the closed form (e^z (z - 1) + 1)/z^2 cancels;
    real or complex scalars or arrays."""
    return np.polynomial.polynomial.polyval(z, _DPHI1_TAYLOR)


def refine_max(times, values, slopes, at, xtol):
    """Time and value of a sampled curve's maximum, refined on its slope.

    ``times`` (ascending), ``values`` and ``slopes`` sample the curve at its
    scan maximum and that sample's neighbours, and ``at(t)`` returns
    (slope, value) at any time between them. The largest sample and the
    neighbour its slope points to bracket a maximum, times[k] < times[k + 1],
    and brentq solves slope = 0 there to ``xtol``. Where an end's slope hides
    the + to - sign change (it is zero on a curve that has not started yet,
    or a second extremum lies between the samples) the bracket is first
    halved on the slope's sign. The best point evaluated is returned, never
    worse than the largest sample; a slope that jumps through zero leaves it
    within xtol of the jump.
    """
    i = int(np.argmax(values))
    k = i if slopes[i] > 0 else i - 1
    if slopes[i] == 0 or not 0 <= k < len(times) - 1:
        return float(times[i]), float(values[i])
    a, b = float(times[k]), float(times[k + 1])
    seen = {a: (slopes[k], values[k]), b: (slopes[k + 1], values[k + 1])}
    while not seen[a][0] > 0 > seen[b][0] and b - a > xtol:
        m = 0.5 * (a + b)
        if _slope(m, seen, at) == 0:
            break
        a, b = (m, b) if seen[m][0] > 0 else (a, m)
    if seen[a][0] > 0 > seen[b][0]:
        # the state goes through args, not a closure: brentq's nan guard
        # refers to itself, and a closure it held would join that cycle
        brentq(_slope, a, b, args=(seen, at), xtol=xtol)
    t = max(seen, key=lambda s: seen[s][1])
    return t, float(seen[t][1])


def _slope(t, seen, at):
    """Slope at t from the memo ``seen`` of (slope, value), filled by ``at``."""
    if t not in seen:
        seen[t] = at(t)
    return seen[t][0]
