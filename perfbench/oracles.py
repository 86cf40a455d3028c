"""Independent oracles the benchmark checks the program against.

Neither oracle imports tpaopt; both are written from the physical model:

* ``pf_riemann``: excitation probability of the final state as a dense
  Riemann sum of the shifted two-photon integral
      P_f(t) = ge*gf * | int_{t2<t} e^{i d2 (t2-t) - gf (t-t2)/2}
                          int_{t1<=t2} e^{i d1 t1 - ge (t2-t1)/2} psi(t2, t1) |^2,
  trapezoid rule on a uniform square grid, Richardson-extrapolated over the
  grids of n and 2n-1 points.
* ``rk4_ladder``: fixed-step classical RK4 for the Lindblad equation of the
  ladder atom under two coherent drives,
      drho/dt = -i[H0, rho] + e1(t)[V1, rho] + e2(t)[V2, rho]
                + D[sqrt(ge)|g><e|] rho + D[sqrt(gf)|e><f|] rho,
  H0 = d1|e><e| + (d1+d2)|f><f|, V1 = |g><e| - |e><g|, V2 = |e><f| - |f><e|.

Run ``python3 perfbench/oracles.py`` for the self-test against closed forms.
"""

import math
import sys

import numpy as np

RIEMANN_POINTS = 1500  # the coarse grid; the fine one has 2n - 1 points
ROW_BLOCK = 128        # grid rows per block: about 4 MB of complex values
RK4_BLOCK = 4096       # propagators built per batch


def pf_riemann(amplitude, gamma_e, gamma_f, delta1, delta2, t, lo):
    """P_f(t) for the joint amplitude ``amplitude(t2, t1)`` supported above lo.

    ``amplitude`` must return the limit value on the diagonal t1 = t2.
    """
    def once(m):
        s = np.linspace(lo, t, m)
        h = s[1] - s[0]
        g = np.zeros(m, dtype=complex)
        for a in range(0, m, ROW_BLOCK):
            t2 = s[a:a + ROW_BLOCK, None]
            t1 = s[None, :]
            below = t1 <= t2
            lag = np.where(below, t2 - t1, 0.0)
            f = np.where(below, np.exp(1j * delta1 * t1 - 0.5 * gamma_e * lag)
                         * amplitude(t2, t1), 0.0)
            rows = np.arange(a, min(a + ROW_BLOCK, m))
            # trapezoid over t1 in [lo, t2]: full sum minus half end points
            g[rows] = h * (f.sum(axis=1) - 0.5 * f[:, 0]
                           - 0.5 * f[np.arange(rows.size), rows])
        g[0] = 0.0
        w = np.exp(1j * delta2 * (s - t) - 0.5 * gamma_f * (t - s)) * g
        outer = h * (w.sum() - 0.5 * w[0] - 0.5 * w[-1])
        return gamma_e * gamma_f * abs(outer) ** 2

    p1, p2 = once(RIEMANN_POINTS), once(2 * RIEMANN_POINTS - 1)
    return p2 + (p2 - p1) / 3.0


def _basis(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def _commutator(x):
    """Superoperator of rho -> x rho - rho x on row-major vec(rho)."""
    eye = np.eye(3)
    return np.kron(x, eye) - np.kron(eye, x.T)


def _dissipator(lop):
    eye = np.eye(3)
    ld = lop.conj().T @ lop
    return (np.kron(lop, lop.conj()) - 0.5 * np.kron(ld, eye)
            - 0.5 * np.kron(eye, ld.T))


def rk4_ladder(gamma_e, gamma_f, delta1, delta2, drive1, drive2, t_start,
               t_end, n_steps, rho0=None):
    """Density matrix at t_end from rho0 (default |g><g|) at t_start.

    ``drive1``/``drive2`` give the real couplings e1(t), e2(t) on arrays.
    The equation is linear, so each step is the RK4 propagator
    I + h/6 (K1 + 2K2 + 2K3 + K4) built in batches and applied in order.
    """
    h0 = _basis(1, 1) * delta1 + _basis(2, 2) * (delta1 + delta2)
    s0 = (-1j * _commutator(h0)
          + _dissipator(math.sqrt(gamma_e) * _basis(0, 1))
          + _dissipator(math.sqrt(gamma_f) * _basis(1, 2)))
    s1 = _commutator(_basis(0, 1) - _basis(1, 0))
    s2 = _commutator(_basis(1, 2) - _basis(2, 1))
    eye = np.eye(9)
    ts = np.linspace(t_start, t_end, n_steps + 1)
    h = ts[1] - ts[0]
    if rho0 is None:
        rho0 = np.diag([1.0, 0.0, 0.0])
    y = np.asarray(rho0, dtype=complex).reshape(9)

    def gen(t):
        return (s0[None] + drive1(t)[:, None, None] * s1[None]
                + drive2(t)[:, None, None] * s2[None])

    for a in range(0, n_steps, RK4_BLOCK):
        t = ts[a:min(a + RK4_BLOCK, n_steps)]
        g1, g2, g3 = gen(t), gen(t + 0.5 * h), gen(t + h)
        k1 = g1
        k2 = g2 @ (eye + 0.5 * h * k1)
        k3 = g2 @ (eye + 0.5 * h * k2)
        k4 = g3 @ (eye + h * k3)
        steps = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for m in steps:
            y = m @ y
    return y.reshape(3, 3)


def gaussian_coupling(rate, n_photons, omega, center):
    """Coupling sqrt(rate*n) * normalized Gaussian amplitude of width omega."""
    c = math.sqrt(rate * n_photons) * (omega**2 / (2.0 * math.pi)) ** 0.25
    return lambda t: c * np.exp(-omega**2 * (t - center) ** 2 / 4.0)


# ---------------------------------------------------------------------------
# self-test against closed forms
# ---------------------------------------------------------------------------

def _matched(ge, gf, t_star):
    def amp(t2, t1):
        inside = (t1 <= t2) & (t2 <= t_star)
        expo = np.where(inside, 0.5 * (gf - ge) * (t2 - t_star)
                        + 0.5 * ge * (t1 - t_star), 0.0)
        return np.where(inside, math.sqrt(ge * gf) * np.exp(expo), 0.0)
    return amp


def _rising(om1, om2):
    def amp(t2, t1):
        inside = (t1 <= 0) & (t2 <= 0)
        expo = np.where(inside, 0.5 * om1 * t1 + 0.5 * om2 * t2, 0.0)
        return np.where(inside, math.sqrt(om1 * om2) * np.exp(expo), 0.0)
    return amp


def selftest():
    """List of (name, error, tolerance) for the oracles' closed-form checks."""
    rows = []
    for r in (0.5, 3.0):
        # matched state: perfect excitation at t_star
        t_star = 0.7
        depth = 40.0 / min(r, 1.0)
        p = pf_riemann(_matched(r, 1.0, t_star), r, 1.0, 0.0, 0.0, t_star,
                       t_star - depth)
        rows.append((f"riemann matched r={r}: P_f(t*) = 1", abs(p - 1.0), 1e-6))
        # rising exponentials at their optimal bandwidths
        s = math.sqrt(1.0 + 8.0 * r)
        om1 = (s - 1.0) / 4.0
        om2 = om1 + 1.0
        closed = 64.0 * r * (s - 1.0) / ((4.0 * r + s - 1.0) ** 2 * (3.0 + s))
        p = pf_riemann(_rising(om1, om2), r, 1.0, 0.0, 0.0, 0.0,
                       -40.0 / min(om1, om2))
        rows.append((f"riemann rising r={r}: optimum formula", abs(p - closed),
                     1e-6))

    # free cascade from |f>: rho_ff = e^{-gf t}, rho_ee by variation of constants
    ge, gf, t = 2.0, 0.5, 3.0
    zero = lambda x: np.zeros_like(x)
    rho = rk4_ladder(ge, gf, 0.0, 0.0, zero, zero, 0.0, t, 3000,
                     rho0=np.diag([0.0, 0.0, 1.0]))
    ee = gf / (ge - gf) * (math.exp(-gf * t) - math.exp(-ge * t))
    rows.append(("rk4 free cascade rho_ff", abs(rho[2, 2].real - math.exp(-gf * t)),
                 1e-9))
    rows.append(("rk4 free cascade rho_ee", abs(rho[1, 1].real - ee), 1e-9))
    # pulse-area theorem on the lower transition without decay
    omega, c = 1.3, 0.9
    area = c * (omega**2 / (2 * math.pi)) ** 0.25 * 2.0 * math.sqrt(math.pi) / omega
    drive = gaussian_coupling(1.0, c**2, omega, 0.0)
    rho = rk4_ladder(0.0, 0.0, 0.0, 0.0, drive, zero, -12.0 / omega,
                     12.0 / omega, 4000)
    rows.append(("rk4 pulse area rho_ee = sin^2(A)",
                 abs(rho[1, 1].real - math.sin(area) ** 2), 1e-9))
    rows.append(("rk4 trace", abs(np.trace(rho) - 1.0), 1e-12))
    return rows


if __name__ == "__main__":
    ok = True
    for name, err, tol in selftest():
        ok &= err <= tol
        print(f"{'PASS' if err <= tol else 'FAIL'}  {name}: {err:.2e} (tol {tol:.0e})")
    sys.exit(0 if ok else 1)
