import math

import numpy as np
import pytest

from tpaopt import absorption as ab
from tpaopt.coherent import CoherentDrive
from tpaopt.model import Atom
from tpaopt.optimal import pmax_bound
from tpaopt.states import (DecayingExpProduct, EntangledGaussian,
                           GaussianProduct, OptimalState, RisingExpProduct,
                           UnsupportedFamilyError)
from conftest import pf_brute_force, pf_compact, random_atom, random_state


class TestPfAt:
    def test_zero_at_interaction_start(self):
        atom = Atom(1.0, 1.0)
        st = GaussianProduct(1.0, 1.0, 0.0)
        assert ab.pf_at(atom, st, -20.0, t0=-20.0) == 0.0

    @pytest.mark.parametrize("ratio", [0.2, 1.0, 5.0])
    def test_perfect_excitation_quadrature(self, ratio):
        atom = Atom(ratio, 1.0)
        st = OptimalState(atom, t_star=0.0)
        assert ab.pf_at(atom, st, 0.0, method="quadrature") == \
            pytest.approx(1.0, abs=1e-3)

    def test_frozen_brute_force_curve(self):
        # values computed with the cumulative-trapezoid Riemann oracle
        # (conftest.pf_brute_force, n=2000, Richardson extrapolated)
        atom = Atom(1.0, 1.0)
        st = GaussianProduct(0.75, 1.53, 1.19)
        frozen = [
            (-2.0, 0.000000009091),
            (0.0, 0.008106150517),
            (1.0, 0.181107178722),
            (2.0, 0.512571421465),
            (3.0, 0.362794535244),
            (5.0, 0.054531770671),
            (8.0, 0.002715229460),
        ]
        for t, expected in frozen:
            assert ab.pf_at(atom, st, t) == pytest.approx(expected, abs=1e-6)

    def test_brute_force_detuned(self, rng):
        atom = Atom(2.0, 1.0, 0.6, -0.4)
        st = EntangledGaussian(0.9, 2.7, 0.8)
        t = 1.4
        oracle = pf_brute_force(atom, st.amplitude, t,
                                st.support1()[0] - 1.0, n=1500)
        assert ab.pf_at(atom, st, t) == pytest.approx(oracle, abs=2e-6)

    def test_fast_matches_quadrature_randomized(self, rng):
        for k in range(15):
            atom = random_atom(rng)
            st = random_state(rng)
            lo, hi = ab.scan_bounds(atom, st)
            t = rng.uniform(lo + 0.2 * (hi - lo), hi)
            pq = ab.pf_at(atom, st, t, method="quadrature", rel_tol=1e-11)
            pf = ab.pf_at(atom, st, t, method="fast")
            assert pf == pytest.approx(pq, rel=1e-9, abs=1e-11)

    def test_two_forms_agree(self, rng):
        # the shifted and compact quadrature forms are algebraically equal
        for k in range(5):
            atom = random_atom(rng)
            st = random_state(rng, "gaussian_product")
            lo, hi = ab.scan_bounds(atom, st)
            t = rng.uniform(lo + 0.3 * (hi - lo), lo + 0.8 * (hi - lo))
            a = ab.pf_at(atom, st, t, method="quadrature", rel_tol=1e-12)
            b = pf_compact(atom, st, t, rel_tol=1e-12)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-13)

    def test_compact_method_rejected(self):
        # the compact form is a test oracle (conftest.pf_compact), not a route
        with pytest.raises(ValueError):
            ab.pf_at(Atom(1.0, 1.0), GaussianProduct(1.0, 1.0), 0.5, method="compact")

    def test_inner_integral_needs_a_state_family(self):
        with pytest.raises(UnsupportedFamilyError):
            ab.decayed_inner(Atom(1.0, 1.0), CoherentDrive(1.0, 1.0, 1.0, 1.0), [0.0])


class TestInnerProduct:
    def test_matched_state_gives_unity(self):
        atom = Atom(1.5, 1.0)
        st = OptimalState(atom, t_star=0.4)
        assert ab.pf_inner_product(atom, st, 0.4) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_reflected_state(self):
        # amplitude supported on the reversed-order region overlaps nowhere
        atom = Atom(1.0, 1.0)
        base = OptimalState(atom, t_star=0.0)

        class Reflected:
            def amplitude(self, t2, t1):
                return base.amplitude(t1, t2)

            def support1(self):
                return base.support2()

            def support2(self):
                return base.support1()

            def breakpoints1(self):
                return base.breakpoints2()

            def breakpoints2(self):
                return base.breakpoints1()

            def t1_scale(self):
                return base.t2_scale()

            def t2_scale(self):
                return base.t1_scale()

        assert ab.pf_inner_product(atom, Reflected(), 0.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_requires_resonance(self):
        with pytest.raises(ab.NotResonantError):
            ab.pf_inner_product(Atom(1.0, 1.0, 0.1, 0.0),
                                GaussianProduct(1.0, 1.0), 0.0)

    def test_cross_method_agreement(self, rng):
        atom = Atom(5.0, 1.0)
        st = EntangledGaussian(1.03, 10.82, 0.19)
        t_scan = np.linspace(-1.0, 2.0, 25)
        vals = [ab.pf_inner_product(atom, st, t) for t in t_scan]
        i = int(np.argmax(vals))
        # golden refinement of the scanned bracket
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = t_scan[max(i - 1, 0)], t_scan[min(i + 1, len(t_scan) - 1)]
        x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
        f1, f2 = ab.pf_inner_product(atom, st, x1), ab.pf_inner_product(atom, st, x2)
        while b - a > 1e-7:
            if f1 >= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = ab.pf_inner_product(atom, st, x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = ab.pf_inner_product(atom, st, x2)
        t_best = 0.5 * (a + b)
        p_best = ab.pf_inner_product(atom, st, t_best)
        tm, pm = ab.pf_max_over_t(atom, st)
        assert p_best == pytest.approx(pm, abs=1e-6)
        assert abs(t_best - tm) < 1e-3

    def test_matches_pf_at_random(self, rng):
        for k in range(6):
            atom = random_atom(rng, resonant=True)
            st = random_state(rng)
            lo, hi = ab.scan_bounds(atom, st)
            t = rng.uniform(lo + 0.3 * (hi - lo), hi)
            a = ab.pf_at(atom, st, t, method="quadrature", rel_tol=1e-10)
            b = ab.pf_inner_product(atom, st, t)
            assert b == pytest.approx(a, abs=1e-8)

    def test_kernel_magnitude_bound(self, rng):
        # the matched weight of the inner product is the matched amplitude
        atom = Atom(2.3, 1.0)
        kern = OptimalState(atom, 0.5).amplitude
        t = rng.uniform(-8, 0.5, size=(200, 2))
        vals = kern(t[:, 0], t[:, 1])
        assert np.all(vals <= math.sqrt(atom.gamma_e * atom.gamma_f) + 1e-12)
        assert np.all(vals >= 0)


class TestMaxOverT:
    def test_rising_peaks_at_zero(self):
        atom = Atom(1.0, 1.0)
        st = RisingExpProduct(0.5, 1.5)
        tm, pm = ab.pf_max_over_t(atom, st)
        assert abs(tm) < 2e-6
        assert pm == pytest.approx(128.0 / 216.0, rel=1e-6)

    def test_delay_beats_no_delay(self):
        atom = Atom(1.0, 1.0)
        _, p_free = ab.pf_max_over_t(atom, GaussianProduct(0.75, 1.53, 1.19))
        _, p_zero = ab.pf_max_over_t(atom, GaussianProduct(1.11, 1.95, 0.0))
        assert p_free > p_zero

    def test_optimal_state_saturates(self):
        atom = Atom(1.0, 1.0)
        st = OptimalState(atom, t_star=0.0)
        tm, pm = ab.pf_max_over_t(atom, st)
        assert pm == pytest.approx(1.0, abs=1e-3)
        assert abs(tm) < 1e-3

    def test_truncated_optimal_hits_bound(self, rng):
        for k in range(6):
            ge = 10 ** rng.uniform(-0.7, 0.7)
            h = rng.uniform(0.3, 8.0)
            atom = Atom(ge, 1.0)
            st = OptimalState(atom, 0.0, -h)
            _, pm = ab.pf_max_over_t(atom, st, t0=-h)
            assert pm == pytest.approx(pmax_bound(atom, h), abs=1e-4)


def _dense_max(atom, st, t0, n=20001, levels=3):
    """Largest P_f on a dense grid, re-gridded around its argmax per level."""
    lo, hi = ab.scan_bounds(atom, st, t0)
    for _ in range(levels):
        t = np.linspace(lo, hi, n)
        p = ab._pf_from_amp(atom, np.abs(ab.curve_amplitudes(atom, st, t, t0=t0)))
        j = int(np.argmax(p))
        lo, hi = t[max(j - 1, 0)], t[min(j + 1, n - 1)]
        n = 2001
    return t[j], p[j]


# (atom, state, t0) across the optimizer's search box: widths 1e-3..1e3
# gamma_f, omega_plus/omega_minus = 1e-6, |delta| up to 50, and states whose
# probability peaks at a kink (support end of the rising and matched states)
_BOX = [
    (Atom(1.0, 1.0), GaussianProduct(1e-3, 1e-3, 0.0), -np.inf),
    (Atom(1.0, 1.0), GaussianProduct(1e3, 1e3, 0.0), -np.inf),
    (Atom(0.01, 1.0), GaussianProduct(0.02, 1.01, 100.0), -np.inf),
    (Atom(100.0, 1.0), GaussianProduct(1e3, 5e2, 0.01), -np.inf),
    (Atom(1.0, 1.0), EntangledGaussian(1e-3, 1e3, 0.0), -np.inf),
    (Atom(0.5, 1.0), EntangledGaussian(2e-3, 2e3, 1.0), -np.inf),
    (Atom(1.0, 1.0, 50.0, -50.0), GaussianProduct(1.0, 2.0, 0.5), -np.inf),
    (Atom(0.5, 1.0, -50.0, 50.0), EntangledGaussian(1.0, 3.0, 1.0), -np.inf),
    (Atom(5.0, 1.0, 50.0, 0.0), GaussianProduct(30.0, 60.0, 0.2), -np.inf),
    (Atom(2.0, 1.0, -3.0, 40.0), DecayingExpProduct(5.0, 50.0, 0.3), -np.inf),
    (Atom(1.0, 1.0), RisingExpProduct(0.5, 1.5), -np.inf),
    (Atom(1.0, 1.0, 2.0, -1.0), RisingExpProduct(2.0, 0.7), -np.inf),
    (Atom(1.0, 1.0), OptimalState(Atom(1.0, 1.0), 0.3), -np.inf),
    (Atom(0.2, 1.0), OptimalState(Atom(0.2, 1.0), 0.0, -2.0), -2.0),
    (Atom(1.0, 1.0), OptimalState(Atom(3.0, 1.0), 0.7, -4.0), -np.inf),
]


class TestMaxOverBox:
    @pytest.mark.parametrize("atom,st,t0", _BOX)
    def test_max_matches_dense_scan(self, atom, st, t0):
        _, pm = ab.pf_max_over_t(atom, st, t0=t0)
        _, p_dense = _dense_max(atom, st, t0)
        assert abs(pm - p_dense) <= 5e-7 * p_dense

    @pytest.mark.parametrize("atom,st,t0", _BOX)
    def test_max_dominates_and_bounds_hold(self, atom, st, t0, rng):
        tm, pm = ab.pf_max_over_t(atom, st, t0=t0)
        lo, hi = ab.scan_bounds(atom, st, t0)
        start = max(min(st.support1()[0], st.support2()[0]), t0)
        for t in np.append(rng.uniform(lo, hi, size=12), tm):
            p = ab.pf_at(atom, st, float(t), t0=t0)
            bound = pmax_bound(atom, max(float(t) - start, 0.0))
            assert 0.0 <= p <= bound + 1e-12
            assert bound <= 1.0
            assert p <= pm * (1.0 + 1e-12)


class TestClosedForms:
    def test_rising_equal_rate_values(self):
        atom = Atom(1.0, 1.0)
        om1, om2, pm = ab.pf_max_rising(atom)
        assert om1 == pytest.approx(0.5, rel=1e-12)
        assert om2 == pytest.approx(1.5, rel=1e-12)
        assert pm == pytest.approx(128.0 / 216.0, abs=1e-9)
        # peak value of the closed-form curve agrees
        assert ab.pf_rising_closed_form(atom, om1, om2, 0.0) == \
            pytest.approx(pm, rel=1e-12)

    def test_rising_limits(self):
        assert ab.pf_max_rising(Atom(1e-3, 1.0))[2] > 0.99
        assert ab.pf_max_rising(Atom(1e3, 1.0))[2] < 0.05

    def test_rising_decays_after_zero(self):
        atom = Atom(2.0, 1.0, 0.3, 0.1)
        p0 = ab.pf_rising_closed_form(atom, 0.7, 1.2, 0.0)
        assert ab.pf_rising_closed_form(atom, 0.7, 1.2, 2.0) == \
            pytest.approx(p0 * math.exp(-2.0), rel=1e-12)

    def test_rising_requires_resonance_for_optimum(self):
        with pytest.raises(ab.NotResonantError):
            ab.rising_optimal_params(Atom(1.0, 1.0, 0.5, 0.0))

    def test_rising_matches_quadrature(self, rng):
        for k in range(25):
            atom = random_atom(rng)
            om1 = 10 ** rng.uniform(-0.5, 0.5)
            om2 = 10 ** rng.uniform(-0.5, 0.5)
            st = RisingExpProduct(om1, om2)
            lo, hi = ab.scan_bounds(atom, st)
            t = rng.uniform(lo + 0.3 * (hi - lo), hi)
            closed = ab.pf_rising_closed_form(atom, om1, om2, t)
            quad = ab.pf_at(atom, st, t, method="quadrature", rel_tol=1e-11)
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_decaying_zero_before_start(self):
        atom = Atom(1.0, 1.0)
        assert ab.pf_decaying_closed_form(atom, 1.0, 2.0, 0.5, 0.5) == 0.0
        assert ab.pf_decaying_closed_form(atom, 1.0, 2.0, 0.5, 0.2) == 0.0
        # negative shift: nothing can happen before photon 1 exists
        assert ab.pf_decaying_closed_form(atom, 1.0, 2.0, -0.5, -0.2) == 0.0

    def test_decaying_matches_quadrature(self, rng):
        for k in range(25):
            atom = random_atom(rng)
            om1 = 10 ** rng.uniform(-0.5, 0.5)
            om2 = 10 ** rng.uniform(-0.5, 0.5)
            ts = rng.uniform(-1.0, 2.0)
            st = DecayingExpProduct(om1, om2, ts)
            lo, hi = ab.scan_bounds(atom, st)
            t = rng.uniform(max(ts, 0.0) + 0.1, hi)
            closed = ab.pf_decaying_closed_form(atom, om1, om2, ts, t)
            quad = ab.pf_at(atom, st, t, method="quadrature", rel_tol=1e-11)
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_decaying_second_pulse_first_reference_routes(self):
        # t_shift < 0: the inner integral's kink at t2 = 0 (first pulse's
        # start) must be an outer breakpoint of the reference routes too
        om1, om2, ts = 0.49776, 2.48535, -0.0030127
        atom = Atom(1.20138, 1.0, 1.70950, -1.89674)
        t = 1.48947
        closed = ab.pf_decaying_closed_form(atom, om1, om2, ts, t)
        quad = ab.pf_at(atom, DecayingExpProduct(om1, om2, ts), t,
                        method="quadrature")
        assert quad == pytest.approx(closed, rel=1e-9)
        om1, om2, ts = 4.72070, 4.72814, -0.060423
        atom = Atom(1.42341, 1.0)
        t = 0.99243
        closed = ab.pf_decaying_closed_form(atom, om1, om2, ts, t)
        inner = ab.pf_inner_product(atom, DecayingExpProduct(om1, om2, ts), t)
        assert inner == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("om1,om2", [(1.0, 2.0), (2.0, 1.0), (0.5, 0.5),
                                         (1.0, 1.0)])
    def test_decaying_removable_singularities(self, om1, om2):
        # a = 0 (ge = om1), c = 0 (gf = om1+om2), or b = 0 hit the
        # singular branches; quadrature is the arbiter
        atom = Atom(om1 if om1 != om2 else 2.0, 1.0)
        ts = 0.3
        st = DecayingExpProduct(om1, om2, ts)
        for t in (0.8, 2.0, 5.0):
            closed = ab.pf_decaying_closed_form(atom, om1, om2, ts, t)
            quad = ab.pf_at(atom, st, t, method="quadrature", rel_tol=1e-11)
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_optimal_closed_form_curve(self):
        atom = Atom(1.3, 1.0)
        st = OptimalState(atom, t_star=0.0)
        for t in (-3.0, -1.0, -0.2, 0.5, 2.0):
            closed = ab.pf_optimal_closed_form(atom, t)
            fast = ab.pf_at(atom, st, t)
            assert closed == pytest.approx(fast, abs=1e-9)
        # post-pulse decay is exactly exponential at gamma_f
        p_star = ab.pf_optimal_closed_form(atom, 0.0)
        assert ab.pf_optimal_closed_form(atom, 3.0) == \
            pytest.approx(p_star * math.exp(-3.0 * atom.gamma_f), rel=1e-12)


class TestBounds:
    def test_probability_in_range(self, rng):
        for k in range(12):
            atom = random_atom(rng)
            st = random_state(rng)
            lo, hi = ab.scan_bounds(atom, st)
            for t in rng.uniform(lo, hi, size=4):
                p = ab.pf_at(atom, st, float(t))
                assert -1e-12 <= p <= 1.0 + 1e-9

    def test_decaying_family_relaxation_bound(self, rng):
        # states supported on [t0, inf): P_f(t) <= 1 - e^{-gamma_f (t - t0)}
        for k in range(10):
            atom = random_atom(rng, resonant=True)
            st = random_state(rng, "decaying_exp")
            t0 = min(0.0, st.t_shift)
            lo, hi = ab.scan_bounds(atom, st)
            for t in rng.uniform(t0, hi, size=4):
                p = ab.pf_at(atom, st, float(t))
                assert p <= 1.0 - math.exp(-atom.gamma_f * (t - t0)) + 1e-9

    def test_pmax_bound_dominates(self, rng):
        for k in range(8):
            atom = random_atom(rng, resonant=True)
            st = random_state(rng, "decaying_exp")
            t0 = min(0.0, st.t_shift)
            lo, hi = ab.scan_bounds(atom, st)
            for t in rng.uniform(t0 + 0.05, hi, size=3):
                p = ab.pf_at(atom, st, float(t))
                assert p <= pmax_bound(atom, float(t) - t0) + 1e-9


class TestResidenceTime:
    def test_optimal_state_value(self):
        atom = Atom(1.0, 1.0)
        tau = ab.residence_time(atom, OptimalState(atom, 0.0))
        assert tau == pytest.approx(2.0 / atom.gamma_f, abs=1e-3)

    def test_matched_family_saturates_two_lifetimes(self, rng):
        # within the matched family, 2/gamma_f is the exact ceiling
        for k in range(6):
            ge = 10 ** rng.uniform(-0.7, 0.7)
            atom = Atom(ge, 1.0)
            h = rng.uniform(0.5, 6.0)
            tau = ab.residence_time(atom, OptimalState(atom, 0.0, -h), t0=-h)
            assert tau <= 2.0 / atom.gamma_f + 1e-3

    def test_long_drives_exceed_two_but_not_four_lifetimes(self):
        # quasi-stationary drives push the residence time past 2/gamma_f;
        # the spectral ceiling of the matched-filter Gram operator is
        # 4/gamma_f and is never exceeded
        atom = Atom(1.0, 1.0)
        tau = ab.residence_time(atom, EntangledGaussian(0.05, 2.0, 1.0), n=8000)
        assert tau > 2.0 / atom.gamma_f
        assert tau <= 4.0 / atom.gamma_f + 1e-3

    def test_vanishing_overlap_limit(self):
        atom = Atom(1.0, 1.0)
        tau = ab.residence_time(atom, GaussianProduct(500.0, 500.0, 0.0))
        assert tau < 1e-2


class TestExcitationCurve:
    def test_curve_contract(self):
        atom = Atom(1.0, 1.0)
        curve = ab.excitation_curve(atom, GaussianProduct(0.75, 1.53, 1.19))
        assert np.all(curve.probabilities >= 0)
        assert np.all(curve.probabilities <= 1 + 1e-9)
        assert curve.p_max >= np.max(curve.probabilities) - 1e-12
        assert curve.meta["state"]["family"] == "gaussian_product"

    def test_csv_export(self, tmp_path):
        atom = Atom(1.0, 1.0)
        curve = ab.excitation_curve(atom, RisingExpProduct(0.5, 1.5),
                                    n_times=50)
        path = tmp_path / "c.csv"
        curve.to_csv(path, extra_comments=("demo",))
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo"
        assert any(l.startswith("# state:") for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "t*gamma_f,P_f"
        assert len(data) == 51


@pytest.mark.parametrize("family", ["gaussian_product", "entangled_gaussian",
                                    "rising_exp", "decaying_exp", "optimal"])
def test_flipping_both_detunings_keeps_the_maximum(family):
    # every family's amplitude is real, so (delta1, delta2) -> (-delta1,
    # -delta2) only conjugates the outer amplitude: P_f(t) is unchanged
    rng = np.random.default_rng(31)
    for _ in range(4):
        state = random_state(rng, family)
        atom = random_atom(rng)
        flipped = Atom(atom.gamma_e, atom.gamma_f, -atom.delta1, -atom.delta2)
        t, p = ab.pf_max_over_t(atom, state)
        t_f, p_f = ab.pf_max_over_t(flipped, state)
        assert p_f == pytest.approx(p, rel=1e-12, abs=0.0)
        assert t_f == pytest.approx(t, rel=1e-12, abs=1e-12)
