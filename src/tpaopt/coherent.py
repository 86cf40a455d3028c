"""Coherent-pulse excitation: master-equation dynamics of the ladder atom.

Two classical Gaussian pulses with mean photon numbers n1, n2 drive the two
transitions; the atomic density matrix obeys a Lindblad equation whose six
independent components (three populations, three coherences) form a linear
9-real-component system y' = M(t) y, M(t) = a0 + e1(t) a1 + e2(t) a2.
Both `evolve` (the sampled trajectory) and `pf_max_coherent` (the maximum of
rho_ff) integrate it with one Dormand-Prince 5(4) stepper written for the
linear system, with RK45's tableau and step control, which builds each
step's stage generators in one matrix product. The stepper steps y alone and
keeps each accepted step's stages; the gradient of the maximum,
dy/d(omega1, omega2, mu) at the maximum's time, comes from one batched pass
over those stages (`_sensitivity_at`).
"""

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.integrate import RK45
# not called here; perfbench's `coherent.solve_ivp` span patches it by name
from scipy.integrate import solve_ivp  # noqa: F401

from .model import Atom, TimeWindow
from .numutil import refine_max
from .states import GaussianProduct


class IntegrationError(RuntimeError):
    """Adaptive step-size control failed (underflow or non-finite error)."""


@dataclass(frozen=True)
class CoherentDrive:
    """Two coherent Gaussian pulses; pulse 2 peaks a delay mu after pulse 1."""

    family = "coherent"
    n1: float
    n2: float
    omega1: float
    omega2: float
    mu: float = 0.0

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("mean photon numbers must be >= 0, "
                             f"got n1={self.n1}, n2={self.n2}")
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise ValueError("spectral widths must be positive, "
                             f"got omega1={self.omega1}, omega2={self.omega2}")

    # the Gaussian product's pulses, borrowed: a drive is no two-photon state
    envelope1 = GaussianProduct.profile1
    envelope2 = GaussianProduct.profile2

    def envelope_derivatives(self, t):
        """Derivatives of envelope1 (row 0) and envelope2 (row 1) by
        theta = (omega1, omega2, mu), shape (2, 3) + shape of t."""
        t = np.asarray(t, dtype=float)
        s = t - self.mu
        out = np.zeros((2, 3) + t.shape)
        out[0, 0] = self.envelope1(t) * (0.5 / self.omega1 - 0.5 * self.omega1 * t**2)
        e2 = self.envelope2(t)
        out[1, 1] = e2 * (0.5 / self.omega2 - 0.5 * self.omega2 * s**2)
        out[1, 2] = e2 * (0.5 * self.omega2**2 * s)
        return out

    def default_window(self, atom: Atom, n_samples=800):
        """Window covering both envelopes to 9 sigma plus a decay margin."""
        lo = min(-9.0 / self.omega1, self.mu - 9.0 / self.omega2)
        hi = max(9.0 / self.omega1, self.mu + 9.0 / self.omega2) + 15.0 / atom.gamma_f
        return TimeWindow(lo, hi, n_samples)

    def to_dict(self):
        return asdict(self)


# state layout: [gg, ee, ff, Re ge, Im ge, Re gf, Im gf, Re ef, Im ef]
def _system_matrices(atom: Atom):
    ge_r, gf_r = atom.gamma_e, atom.gamma_f
    d1, d2 = atom.delta1, atom.delta2
    a0 = np.zeros((9, 9))
    a0[0, 1] = ge_r
    a0[1, 1] = -ge_r
    a0[1, 2] = gf_r
    a0[2, 2] = -gf_r
    a0[3, 4] = -d1;            a0[3, 3] = -ge_r / 2
    a0[4, 3] = d1;             a0[4, 4] = -ge_r / 2
    a0[5, 6] = -(d1 + d2);     a0[5, 5] = -gf_r / 2
    a0[6, 5] = (d1 + d2);      a0[6, 6] = -gf_r / 2
    a0[7, 8] = -d2;            a0[7, 7] = -(ge_r + gf_r) / 2
    a0[8, 7] = d2;             a0[8, 8] = -(ge_r + gf_r) / 2

    a1 = np.zeros((9, 9))      # multiplies sqrt(ge*n1)*alpha01(t)
    a1[0, 3] = 2.0
    a1[1, 3] = -2.0
    a1[3, 1] = 1.0; a1[3, 0] = -1.0
    a1[5, 7] = 1.0
    a1[6, 8] = 1.0
    a1[7, 5] = -1.0
    a1[8, 6] = -1.0

    a2 = np.zeros((9, 9))      # multiplies sqrt(gf*n2)*alpha02(t)
    a2[1, 7] = 2.0
    a2[2, 7] = -2.0
    a2[3, 5] = 1.0
    a2[4, 6] = 1.0
    a2[5, 3] = -1.0
    a2[6, 4] = -1.0
    a2[7, 2] = 1.0; a2[7, 1] = -1.0
    return a0, a1, a2


def _generators(atom: Atom, drive: CoherentDrive):
    """times -> stack of generators M(t), shape (len(times), 9, 9)."""
    basis = np.stack(_system_matrices(atom)).reshape(3, 81)
    c1 = math.sqrt(atom.gamma_e * drive.n1)
    c2 = math.sqrt(atom.gamma_f * drive.n2)

    def at(ts):
        coef = np.empty((ts.size, 3))
        coef[:, 0] = 1.0
        coef[:, 1] = c1 * drive.envelope1(ts)
        coef[:, 2] = c2 * drive.envelope2(ts)
        return (coef @ basis).reshape(-1, 9, 9)

    return at


@dataclass(frozen=True)
class DensityTrajectory:
    """Sampled density-matrix components; trace preserved to 1e-8."""

    times: np.ndarray
    rho_gg: np.ndarray
    rho_ee: np.ndarray
    rho_ff: np.ndarray
    rho_ge: np.ndarray
    rho_gf: np.ndarray
    rho_ef: np.ndarray
    meta: dict = field(default_factory=dict)

    def trace(self):
        return self.rho_gg + self.rho_ee + self.rho_ff

    def matrices(self):
        """Stack of reconstructed 3x3 density matrices (Hermitian by build)."""
        n = self.times.size
        rho = np.zeros((n, 3, 3), dtype=complex)
        rho[:, 0, 0] = self.rho_gg
        rho[:, 1, 1] = self.rho_ee
        rho[:, 2, 2] = self.rho_ff
        rho[:, 0, 1] = self.rho_ge; rho[:, 1, 0] = np.conj(self.rho_ge)
        rho[:, 0, 2] = self.rho_gf; rho[:, 2, 0] = np.conj(self.rho_gf)
        rho[:, 1, 2] = self.rho_ef; rho[:, 2, 1] = np.conj(self.rho_ef)
        return rho


def evolve(atom: Atom, drive: CoherentDrive, window: TimeWindow | None = None,
           rtol=1e-8, atol=1e-10):
    """Integrate the driven master equation and sample on the window grid.

    The master equation is stepped once by `_dormand_prince`, as in
    `pf_max_coherent`, and sampled through the steps' dense output. ``meta``
    records the rtol it stepped at, floored at 100 eps as the stepper does.
    """
    if window is None:
        window = drive.default_window(atom)
    steps = _dormand_prince(_generators(atom, drive), window.t_start,
                            window.t_end, rtol, atol)
    ts = window.grid()
    y = steps(ts).T
    return DensityTrajectory(
        times=ts, rho_gg=y[0], rho_ee=y[1], rho_ff=y[2],
        rho_ge=y[3] + 1j * y[4], rho_gf=y[5] + 1j * y[6],
        rho_ef=y[7] + 1j * y[8],
        meta={"atom": asdict(atom), "drive": drive.to_dict(),
              "rtol": max(rtol, _RTOL_FLOOR), "atol": atol},
    )


# Dormand-Prince 5(4): stage nodes C, couplings A, weights B, error weights E
# and dense-output matrix P, exactly as solve_ivp's RK45 uses them
_A, _B, _C, _E, _P = RK45.A, RK45.B, RK45.C, RK45.E, RK45.P
# the inputs of stages 1-5 (rows 1-5) and the fifth-order solution (row 6)
# as weights on (y, k_0, ..., k_5); a step scales them by h and sets the
# weight of y, column 0, to 1
_WEIGHTS = np.zeros((7, 7))
_WEIGHTS[1:6, 1:6] = _A[1:]
_WEIGHTS[6, 1:] = _B
_RTOL_FLOOR = 100 * np.finfo(float).eps   # solve_ivp's lowest rtol


def _rms(x):
    return math.sqrt(x @ x / x.size)


@dataclass(frozen=True)
class _Steps:
    """Accepted steps: ends t (n+1,), states y (n+1, k), dense q (n, k, 4)
    and stages z (n, 8, k), each step's start y_n then k_0 ... k_6."""

    t: np.ndarray
    y: np.ndarray
    q: np.ndarray
    z: np.ndarray

    def segment(self, ts):
        """Index of the step each time falls in; a time on a step end takes
        the earlier step, as solve_ivp does."""
        return np.clip(np.searchsorted(self.t, ts) - 1, 0, len(self.q) - 1)

    def __call__(self, ts, rows=slice(None)):
        """Dense output at the times ts, shape (len(ts), rows of y)."""
        seg = self.segment(ts)
        h = self.t[seg + 1] - self.t[seg]
        powers = np.cumprod(np.repeat(((ts - self.t[seg]) / h)[:, None], 4, 1), 1)
        return (h[:, None] * np.einsum("nij,nj->ni", self.q[seg, rows], powers)
                + self.y[seg, rows])


def _dormand_prince(generators, t0, t1, rtol, atol):
    """Dormand-Prince 5(4) steps of y' = M(t) y from the ground state at t0.

    Initial step and step control are solve_ivp's RK45 ones (safety 0.9,
    step factor within 0.2...10, no growth right after a rejected step,
    minimum step 10 ulp of t, rtol floored at 100 eps with a warning), so
    rtol and atol mean what they mean there. A step-size underflow or a
    non-finite error norm raises `IntegrationError`.

    Returns the accepted steps of y, with each step's stages kept for
    `_sensitivity_at`.
    """
    if rtol < _RTOL_FLOOR:
        warnings.warn(f"rtol {rtol} is below 100 eps; using 100 eps", stacklevel=3)
        rtol = _RTOL_FLOOR
    if atol < 0:
        raise ValueError("atol must be >= 0")
    y = np.zeros(9)
    y[0] = 1.0
    f = generators(np.array([t0]))[0] @ y

    # initial step (Hairer, Norsett & Wanner, Sec. II.4), as select_initial_step
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

    z = np.empty((8, 9))   # y, then the stages k_0 ... k_6 of a step
    t = t0
    ts, ys, qs, zs = [t], [y], [], []
    while t < t1:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        z[0], z[1] = y, f
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"step size underflow at t = {t!r}")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            m = generators(t + _C[1:] * h)
            w = h * _WEIGHTS
            w[:, 0] = 1.0
            for s in range(1, 6):
                z[s + 1] = m[s - 1] @ (w[s, :s + 1] @ z[:s + 1])
            y_new = w[6] @ z[:7]
            z[7] = f_new = m[4] @ y_new   # C[5] = 1: the last stage is at t + h
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms((h * _E) @ z[1:] / scale)
            if not math.isfinite(err):
                raise IntegrationError(f"non-finite error norm at t = {t!r}")
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        qs.append(z[1:].T @ _P)
        zs.append(z.copy())
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return _Steps(np.array(ts), np.array(ys), np.array(qs), np.array(zs))


_BLOCK = 16   # accepted steps per batched pass of `_sensitivity_at`


def _sensitivity_at(atom: Atom, drive: CoherentDrive, steps: _Steps, t):
    """S = dy/dtheta at time t, theta = (omega1, omega2, mu), shape (9, 3),
    from the stages of the steps up to the one that holds t.

    Differentiating a step's stages k_s = M_s Y_s, Y_s = y_n + h sum_j
    A[s, j] k_j, makes each stage's derivative an affine map of the step's
    start, dk_s = P_s S_n + Q_s with (dM_s/dtheta) Y_s in Q_s, and the step
    one too, S_{n+1} = R_n S_n + c_n (Hairer, Norsett & Wanner, Sec. II.6).
    So S is the exact derivative of the discrete solution at fixed steps,
    as if the stepper had carried it. The maps are built by matmul over
    blocks of `_BLOCK` steps and folded one step at a time; the held step's
    dense output gives S at t.
    """
    _, a1, a2 = _system_matrices(atom)
    a12 = np.stack([math.sqrt(atom.gamma_e * drive.n1) * a1,
                    math.sqrt(atom.gamma_f * drive.n2) * a2], -1)   # (9, 9, 2)
    generators = _generators(atom, drive)
    held = int(steps.segment(np.array([t]))[0])
    eye = np.eye(9, 12)
    sens = np.zeros((9, 3))   # the ground state at t0 does not move with theta
    for n0 in range(0, held + 1, _BLOCK):
        z = steps.z[n0:held + 1][:_BLOCK]
        ends = steps.t[n0:n0 + len(z) + 1]
        h = np.diff(ends)
        times = ends[:-1] + _C[:, None] * h   # (stage, step)
        m = generators(times.ravel()).reshape(6, -1, 9, 9)
        # dM_s/dtheta Y_s: the envelopes' derivatives times a1 Y_s and a2 Y_s
        y_in = z[:, 0] + h[:, None] * np.tensordot(_A, z[:, 1:6], (1, 1))
        coef = drive.envelope_derivatives(times).transpose(2, 3, 0, 1)
        # stage s of the block's steps as g[s] = [P_s | Q_s], (9, 12) each
        g = np.empty((6, len(z), 9, 12))
        for s in range(6):
            g[s] = m[s] @ (eye + h[:, None, None] * np.tensordot(_A[s, :s], g[:s], 1))
            g[s, :, :, 9:] += np.einsum("ijk,bj->bik", a12, y_in[s]) @ coef[s]
        step = eye + h[:, None, None] * np.tensordot(_B, g, 1)
        for r in step[:held - n0]:
            sens = r[:, :9] @ sens + r[:, 9:]
    # the held step: its stages, k_6 = M(t_n + h) y_{n+1} included, at t
    i = held - n0
    dk = g[:, i, :, :9] @ sens + g[:, i, :, 9:]
    end = step[i, :, :9] @ sens + step[i, :, 9:]
    dk6 = m[5, i] @ end + np.einsum("ijk,j->ik", a12, steps.y[held + 1]) @ coef[5, i]
    x = (t - steps.t[held]) / h[i]
    alpha = _P @ np.cumprod(np.full(4, x))
    return sens + h[i] * (np.tensordot(alpha[:6], dk, 1) + alpha[6] * dk6)


def pf_max_coherent(atom: Atom, drive: CoherentDrive, rtol=1e-8, atol=1e-10,
                    gradient=False):
    """Maximum of the final-state population over the drive's default window.

    The master equation is stepped once by `_dormand_prince`, as in
    `evolve`, so rtol/atol mean the same for both; rho_ff is scanned on
    1200 points of its dense output and the maximum refined by
    `refine_max` at the root of the slope d rho_ff/dt, row 2 of M(t) y.
    Returns (t_max, p_max), and with ``gradient`` also d p_max/d theta for
    theta = (omega1, omega2, mu): the slope vanishes at the maximum, so this
    is d rho_ff/d theta at fixed time (envelope theorem), which
    `_sensitivity_at` reads off the accepted steps' stages at the slope's
    root. The steps, and so (t_max, p_max), are the same bit for bit with or
    without it.
    """
    window = drive.default_window(atom)
    generators = _generators(atom, drive)
    steps = _dormand_prince(generators, window.t_start, window.t_end, rtol, atol)
    ts = np.linspace(window.t_start, window.t_end, 1200)
    pf = steps(ts, slice(2, 3))[:, 0]
    i = int(np.argmax(pf))
    win = slice(max(i - 1, 0), i + 2)
    slopes = np.einsum("ij,ij->i", generators(ts[win])[:, 2], steps(ts[win]))

    def at(t):
        y = steps(np.array([t]))[0]
        return generators(np.array([t]))[0, 2] @ y, y[2]

    xtol = 1e-6 / atom.gamma_f
    t_max, p_max = refine_max(ts[win], pf[win], slopes, at, xtol)
    if not gradient:
        return t_max, p_max
    # t_max lies within xtol of the slope's root; there d rho_ff/d mu would
    # be off by about xtol * d2 rho_ff/dt2, since the maximum moves with
    # pulse 2. A secant step on the slope reads the gradient at the root.
    ds = at(t_max + xtol)[0] - at(t_max - xtol)[0]
    dt = -at(t_max)[0] * 2.0 * xtol / ds if ds else 0.0
    t_root = t_max + dt if abs(dt) <= 2.0 * xtol else t_max
    return t_max, p_max, _sensitivity_at(atom, drive, steps, t_root)[2]
