import gc
from pathlib import Path

import numpy as np
import pytest

from tpaopt.coherent import (CoherentDrive, DensityTrajectory,
                             IntegrationError, _dormand_prince, _generators,
                             evolve, pf_max_coherent)
from tpaopt.cli import main
from tpaopt.model import Atom, TimeWindow
from conftest import (lindblad_rhs, pf_max_coherent_reference, rk4_fixed_step,
                      solve_ivp_reference)


def test_drive_validation():
    with pytest.raises(ValueError):
        CoherentDrive(-0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        CoherentDrive(1.0, 1.0, 0.0, 1.0)


def test_envelopes_normalized():
    d = CoherentDrive(1.0, 1.0, 0.7, 2.3, 0.9)
    t = np.linspace(-40, 40, 60001)
    assert np.trapezoid(d.envelope1(t) ** 2, t) == pytest.approx(1.0, abs=1e-10)
    assert np.trapezoid(d.envelope2(t) ** 2, t) == pytest.approx(1.0, abs=1e-10)


def test_no_drive_stays_in_ground_state():
    traj = evolve(Atom(1.0, 1.0), CoherentDrive(0.0, 0.0, 1.0, 1.0))
    assert np.allclose(traj.rho_gg, 1.0, atol=1e-12)
    assert np.all(traj.rho_ff == 0.0)
    assert np.all(traj.rho_ee == 0.0)


def test_upper_transition_undriven_keeps_ff_empty():
    traj = evolve(Atom(1.0, 1.0), CoherentDrive(1.0, 0.0, 1.0, 1.0))
    assert np.max(np.abs(traj.rho_ff)) == 0.0
    assert traj.rho_ee.max() > 0.1


def test_trace_preserved_and_positive(rng):
    for k in range(8):
        atom = Atom(10 ** rng.uniform(-1, 1), 1.0,
                    rng.uniform(-1, 1), rng.uniform(-1, 1))
        d = CoherentDrive(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                          10 ** rng.uniform(-0.3, 0.5),
                          10 ** rng.uniform(-0.3, 0.5),
                          rng.uniform(-1.0, 2.0))
        traj = evolve(atom, d)
        assert np.max(np.abs(traj.trace() - 1.0)) < 1e-8
        ev = np.linalg.eigvalsh(traj.matrices())
        assert ev.min() > -1e-7


def test_resonant_real_envelope_coherences_real():
    traj = evolve(Atom(1.3, 1.0), CoherentDrive(1.0, 1.0, 1.2, 0.8, 0.4))
    assert np.max(np.abs(traj.rho_ge.imag)) < 1e-9
    assert np.max(np.abs(traj.rho_gf.imag)) < 1e-9
    assert np.max(np.abs(traj.rho_ef.imag)) < 1e-9


def test_matches_fixed_step_oracle():
    # independent classical RK4 at a fixed small step
    atom = Atom(1.5, 1.0, 0.3, -0.2)
    d = CoherentDrive(1.0, 1.0, 1.0, 1.4, 0.6)
    window = TimeWindow(-6.0, 10.0, 201)
    traj = evolve(atom, d, window)
    rhs = lindblad_rhs(atom, d)
    y0 = np.zeros(9)
    y0[0] = 1.0
    ts, ys = rk4_fixed_step(rhs, y0, window.t_start, window.t_end, 1e-4)
    idx = np.searchsorted(ts, traj.times)
    idx = np.clip(idx, 0, ts.size - 1)
    for col, ref in ((traj.rho_gg, ys[idx, 0]), (traj.rho_ee, ys[idx, 1]),
                     (traj.rho_ff, ys[idx, 2])):
        assert np.max(np.abs(col - ref)) < 1e-6


def test_pf_max_tolerance_convergence():
    atom = Atom(1.0, 1.0)
    d = CoherentDrive(1.0, 1.0, 1.1, 1.7, 0.5)
    _, p1 = pf_max_coherent(atom, d, rtol=1e-8, atol=1e-10)
    _, p2 = pf_max_coherent(atom, d, rtol=5e-9, atol=5e-11)
    assert abs(p1 - p2) < 1e-7


def test_pf_max_dominates_dense_samples():
    atom = Atom(0.5, 1.0)
    d = CoherentDrive(1.0, 1.0, 1.3, 2.1, 0.8)
    tm, pm = pf_max_coherent(atom, d)
    # the samples come from solve_ivp: evolve shares pf_max_coherent's stepper
    window = d.default_window(atom, n_samples=20001)
    ts = window.grid()
    pf = solve_ivp_reference(atom, d, window, 1e-8, 1e-10)(ts)[2]
    assert pm >= pf.max() - 1e-12
    # a grid sample misses the peak by at most |rho_ff''| h^2 / 8 ~ 1e-7
    assert pm - pf.max() < 2e-7
    assert abs(tm - ts[np.argmax(pf)]) <= window.span / 20000


def test_pf_max_leaves_no_reference_cycle():
    # the stepped solution must be freed by reference counting, not held
    # in a cycle until the next collection
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        pf_max_coherent(Atom(1.0, 1.0), CoherentDrive(1.0, 1.0, 1.76, 2.8, 0.68))
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert "_Steps" not in leaked and "CoherentDrive" not in leaked


def _seeded_drives(n, seed=5):
    """Atoms with gamma_e/gamma_f in 0.01...100 and detunings in [-1, 1]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        ge = 10 ** rng.uniform(-2, 2)
        atom = Atom(ge, 1.0, rng.uniform(-1, 1), rng.uniform(-1, 1))
        yield atom, CoherentDrive(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                                  ge * 10 ** rng.uniform(-0.3, 0.7),
                                  10 ** rng.uniform(-0.3, 0.7),
                                  rng.uniform(-0.5, 1.5) / ge)


@pytest.mark.parametrize("rtol", [1e-7, 1e-10])
def test_pf_max_matches_solve_ivp_route(rtol):
    # same RK45 steps as solve_ivp, so the same maximum up to rounding
    for atom, d in _seeded_drives(30):
        tm, pm = pf_max_coherent(atom, d, rtol=rtol, atol=rtol * 1e-2)
        tr, pr = pf_max_coherent_reference(atom, d, rtol=rtol, atol=rtol * 1e-2)
        assert pm == pytest.approx(pr, rel=1e-9, abs=0.0)
        assert abs(tm - tr) <= 1e-9 / atom.gamma_f


@pytest.mark.parametrize("rtol", [1e-7, 1e-10])
def test_gradient_leaves_the_maximum_bitwise(rtol):
    # the sensitivities ride along without touching y's steps
    for atom, d in _seeded_drives(12):
        plain = pf_max_coherent(atom, d, rtol=rtol, atol=rtol * 1e-2)
        tm, pm, grad = pf_max_coherent(atom, d, rtol=rtol, atol=rtol * 1e-2,
                                       gradient=True)
        assert (tm, pm) == plain
        assert grad.shape == (3,) and np.all(np.isfinite(grad))


def test_flipping_both_detunings_keeps_the_coherent_maximum():
    # real envelopes: flipping both detunings conjugates rho, so rho_ff
    # and its maximum are unchanged
    for atom, d in _seeded_drives(10, seed=8):
        flipped = Atom(atom.gamma_e, atom.gamma_f, -atom.delta1, -atom.delta2)
        t, p = pf_max_coherent(atom, d)
        t_f, p_f = pf_max_coherent(flipped, d)
        assert p_f == pytest.approx(p, rel=1e-12, abs=0.0)
        assert t_f == pytest.approx(t, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("rtol", [1e-7, 1e-10])
def test_stepper_preserves_trace(rtol):
    for atom, d in _seeded_drives(30):
        window = d.default_window(atom)
        steps, _ = _dormand_prince(_generators(atom, d), window.t_start,
                                   window.t_end, rtol, rtol * 1e-2)
        assert steps.t[0] == window.t_start and steps.t[-1] == window.t_end
        assert np.max(np.abs(steps.y[:, :3].sum(axis=1) - 1.0)) <= 1e-8


def test_stepper_nonfinite_error_raises():
    # atol = 0 leaves the components that stay zero (the imaginary parts on
    # resonance) without a scale, so the error norm is 0/0
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(IntegrationError, match="non-finite"):
        pf_max_coherent(Atom(1.0, 1.0), CoherentDrive(1.0, 1.0, 1.0, 1.0), atol=0.0)


def test_stepper_step_underflow_raises():
    # near t = 1e17 ten ulp are 160, far above the step y' = -y can take
    def decay(ts):
        return np.broadcast_to(-np.eye(9), (len(ts), 9, 9))
    with pytest.raises(IntegrationError, match="underflow"):
        _dormand_prince(decay, 1e17, 1e17 + 1e4, 1e-8, 1e-10)


def test_rtol_below_floor_warns_and_is_floored():
    atom, d = Atom(1.0, 1.0), CoherentDrive(1.0, 1.0, 1.1, 1.7, 0.5)
    for route in (pf_max_coherent,
                  lambda *args, **tol: evolve(*args, **tol).matrices()):
        with pytest.warns(UserWarning, match="rtol"):
            low = route(atom, d, rtol=1e-17, atol=1e-8)
        np.testing.assert_array_equal(
            low, route(atom, d, rtol=100 * np.finfo(float).eps, atol=1e-8))


def test_integration_failure_surfaces():
    # evolve raises the stepper's typed error instead of returning a
    # trajectory; atol = 0 on resonance makes the error norm 0/0
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(IntegrationError, match="non-finite"):
        evolve(Atom(1.0, 1.0), CoherentDrive(1.0, 1.0, 1.0, 1.0), atol=0.0)


def test_evolve_matches_solve_ivp_reference():
    # the same RK45 method, so the same trajectory up to rounding (which can
    # shift a step time, within the solver tolerance)
    for atom, d in _seeded_drives(30):
        window = d.default_window(atom)
        traj = evolve(atom, d, window, rtol=1e-8, atol=1e-10)
        ref = solve_ivp_reference(atom, d, window, 1e-8, 1e-10)(window.grid())
        ours = np.stack([traj.rho_gg, traj.rho_ee, traj.rho_ff,
                         traj.rho_ge.real, traj.rho_ge.imag,
                         traj.rho_gf.real, traj.rho_gf.imag,
                         traj.rho_ef.real, traj.rho_ef.imag])
        assert np.max(np.abs(ours - ref)) <= 1e-9


@pytest.mark.xfail(strict=True, reason="the first step is not capped by the "
                   "drive widths, so it steps over the narrow pulse 1")
def test_narrow_pulse_is_not_stepped_over():
    # a fixed-step RK4 reaches rho_ff = 4.46e-4 on this drive; both routes
    # share the stepper, whose first step passes over pulse 1 and reads 0
    atom, d = Atom(100.0, 1.0), CoherentDrive(1.0, 1.0, 240.0, 2.4, 0.0)
    assert pf_max_coherent(atom, d)[1] > 1e-4
    assert evolve(atom, d).rho_ff.max() > 1e-4


def test_no_module_calls_solve_ivp():
    # one integrator for the master equation: scipy's solvers and the
    # right-hand side they need serve only the tests' oracles
    src = Path(__file__).parents[1] / "src" / "tpaopt"
    callers = {p.name for p in src.glob("*.py")
               if any(w in p.read_text() for w in
                      ("solve_ivp(", "odeint(", "lindblad_rhs"))}
    assert callers == set()


def test_trajectory_csv(tmp_path):
    # tpaopt coherent writes evolve's trajectory on the drive's default window
    assert main(["coherent", "--gamma-ratio", "1", "--n1", "1", "--n2", "1",
                 "--omega1", "1", "--omega2", "1", "--n-times", "33",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# tpaopt ")
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("t*gamma_f,rho_gg")
    assert len(data) == 34
    atom, drive = Atom(1.0, 1.0), CoherentDrive(1.0, 1.0, 1.0, 1.0)
    traj = evolve(atom, drive, drive.default_window(atom, 33))
    rows = np.array([[float(v) for v in l.split(",")] for l in data[1:]])
    assert np.allclose(rows[:, 0], traj.times, rtol=1e-11, atol=0)
    assert np.allclose(rows[:, 3], traj.rho_ff, rtol=1e-11, atol=1e-15)
    assert np.allclose(rows[:, 8] + 1j * rows[:, 9], traj.rho_ef,
                       rtol=1e-11, atol=1e-15)
