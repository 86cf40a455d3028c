"""Coherent-pulse excitation: master-equation dynamics of the ladder atom.

Two classical Gaussian pulses with mean photon numbers n1, n2 drive the two
transitions; the atomic density matrix obeys a Lindblad equation whose six
independent components (three populations, three coherences) are integrated
as a 9-real-component system with an embedded adaptive Runge-Kutta pair.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .model import Atom, TimeWindow
from .numutil import refine_max


class IntegrationError(RuntimeError):
    """Adaptive step-size control failed (underflow or unreachable tolerance)."""


@dataclass(frozen=True)
class CoherentDrive:
    """Two coherent Gaussian pulses; pulse 2 peaks a delay mu after pulse 1."""

    n1: float
    n2: float
    omega1: float
    omega2: float
    mu: float = 0.0

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("mean photon numbers must be >= 0")
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise ValueError("spectral widths must be positive")

    def envelope1(self, t):
        t = np.asarray(t, dtype=float)
        return (self.omega1**2 / (2 * np.pi)) ** 0.25 * np.exp(
            -self.omega1**2 * t**2 / 4.0)

    def envelope2(self, t):
        t = np.asarray(t, dtype=float)
        return (self.omega2**2 / (2 * np.pi)) ** 0.25 * np.exp(
            -self.omega2**2 * (t - self.mu) ** 2 / 4.0)

    def default_window(self, atom: Atom, n_samples=800):
        """Window covering both envelopes to 9 sigma plus a decay margin."""
        lo = min(-9.0 / self.omega1, self.mu - 9.0 / self.omega2)
        hi = max(9.0 / self.omega1, self.mu + 9.0 / self.omega2) + 15.0 / atom.gamma_f
        return TimeWindow(lo, hi, n_samples)

    def to_dict(self):
        return {"n1": self.n1, "n2": self.n2, "omega1": self.omega1,
                "omega2": self.omega2, "mu": self.mu}


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


def lindblad_rhs(atom: Atom, drive: CoherentDrive):
    """Right-hand side f(t, y) of the 9-component real system."""
    a0, a1, a2 = _system_matrices(atom)
    c1 = math.sqrt(atom.gamma_e * drive.n1)
    c2 = math.sqrt(atom.gamma_f * drive.n2)

    def rhs(t, y):
        e1 = c1 * drive.envelope1(t)
        e2 = c2 * drive.envelope2(t)
        return (a0 + e1 * a1 + e2 * a2) @ y

    return rhs


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

    def to_csv(self, path, extra_comments=()):
        lines = [f"# {c}" for c in extra_comments]
        lines.append("t*gamma_f,rho_gg,rho_ee,rho_ff,re_rho_ge,im_rho_ge,"
                     "re_rho_gf,im_rho_gf,re_rho_ef,im_rho_ef")
        for i, t in enumerate(self.times):
            lines.append(",".join(
                f"{v:.12g}" for v in (
                    t, self.rho_gg[i], self.rho_ee[i], self.rho_ff[i],
                    self.rho_ge[i].real, self.rho_ge[i].imag,
                    self.rho_gf[i].real, self.rho_gf[i].imag,
                    self.rho_ef[i].real, self.rho_ef[i].imag)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _solve(atom, drive, t_span, rtol, atol, dense=True):
    y0 = np.zeros(9)
    y0[0] = 1.0  # ground state at t0
    sol = solve_ivp(lindblad_rhs(atom, drive), t_span, y0, method="RK45",
                    rtol=rtol, atol=atol, dense_output=dense)
    if not sol.success:
        raise IntegrationError(sol.message)
    return sol


def evolve(atom: Atom, drive: CoherentDrive, window: TimeWindow | None = None,
           rtol=1e-8, atol=1e-10):
    """Integrate the driven master equation and sample on the window grid."""
    if window is None:
        window = drive.default_window(atom)
    sol = _solve(atom, drive, (window.t_start, window.t_end), rtol, atol)
    ts = window.grid()
    y = sol.sol(ts)
    return DensityTrajectory(
        times=ts, rho_gg=y[0], rho_ee=y[1], rho_ff=y[2],
        rho_ge=y[3] + 1j * y[4], rho_gf=y[5] + 1j * y[6],
        rho_ef=y[7] + 1j * y[8],
        meta={"atom": vars(atom).copy() if hasattr(atom, "__dict__") else {
            "gamma_e": atom.gamma_e, "gamma_f": atom.gamma_f,
            "delta1": atom.delta1, "delta2": atom.delta2},
            "drive": drive.to_dict(), "rtol": rtol, "atol": atol},
    )


def pf_max_coherent(atom: Atom, drive: CoherentDrive, window=None,
                    rtol=1e-8, atol=1e-10, n_scan=1200):
    """Maximum of the final-state population over the window.

    Coarse scan on the dense solver output, refined at the root of the
    slope d rho_ff/dt taken from the right-hand side.
    """
    if window is None:
        window = drive.default_window(atom)
    sol = _solve(atom, drive, (window.t_start, window.t_end), rtol, atol)
    rhs = lindblad_rhs(atom, drive)
    ts = np.linspace(window.t_start, window.t_end, n_scan)
    pf = sol.sol(ts)[2]
    i = int(np.argmax(pf))
    win = slice(max(i - 1, 0), i + 2)
    slopes = [rhs(t, y)[2] for t, y in zip(ts[win], sol.sol(ts[win]).T)]

    def trial(k):
        def at(t):
            y = sol.sol(t)
            return rhs(t, y)[2], y[2]
        return at

    return refine_max(ts[win], pf[win], slopes, trial, 1e-6 / atom.gamma_f)
