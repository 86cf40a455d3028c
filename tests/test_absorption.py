import dataclasses
import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tpaopt import absorption as ab
from tpaopt.coherent import CoherentDrive
from tpaopt.model import Atom
from tpaopt.optimal import pmax_bound
from tpaopt.states import (FAMILIES, DecayingExpProduct, EntangledGaussian,
                           GaussianProduct, OptimalState, RisingExpProduct,
                           UnsupportedFamilyError)
from conftest import (curve_amplitudes_time_split, pf_brute_force, pf_compact,
                      pf_quadrature, random_atom, random_state)


class TestPfAt:
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
            pq = pf_quadrature(atom, st, t, 1e-11)
            pf = ab.pf_at(atom, st, t, method="fast")
            assert pf == pytest.approx(pq, rel=1e-9, abs=1e-11)

    def test_two_forms_agree(self, rng):
        # the shifted and compact quadrature forms are algebraically equal
        for k in range(5):
            atom = random_atom(rng)
            st = random_state(rng, "gaussian_product")
            lo, hi = ab.scan_bounds(atom, st)
            t = rng.uniform(lo + 0.3 * (hi - lo), lo + 0.8 * (hi - lo))
            a = pf_quadrature(atom, st, t, 1e-12)
            b = pf_compact(atom, st, t, rel_tol=1e-12)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-13)

    def test_reference_route_values_are_pinned(self):
        # recorded bit for bit from the route that ran one adaptive
        # integral per outer node: the inner integrals of a node batch
        # take the same bisections, so every value is unchanged
        atom = Atom(2.0, 1.0)
        cases = [
            (atom, GaussianProduct(1.1, 1.9, 1.2), 2.0,
             0.3977904388731185, 0.3977904388731184),
            (atom, EntangledGaussian(1.03, 10.82, 0.19), 1.0,
             0.4633676708935106, 0.4633676708935106),
            (atom, RisingExpProduct(*ab.rising_optimal_params(atom)), 0.0,
             0.4536021822498802, 0.4536021822498802),
            (atom, DecayingExpProduct(4.72070, 4.72814, -0.060423), 0.99243,
             0.061490797852015076, 0.06149079785201511),
            (atom, OptimalState(atom, t_star=0.4), 0.4,
             0.9999999999999879, 0.9999999999999882),
            (Atom(2.0, 1.0, 0.7, -0.4), GaussianProduct(1.1, 1.9, 1.2), 2.0,
             0.3140229058962051, 0.3140229058962052),
        ]
        for at, st, t, p9, p11 in cases:
            assert ab._pf_at_quadrature(at, st, t, 1e-9) == p9
            assert ab._pf_at_quadrature(at, st, t, 1e-11) == p11

    def test_compact_method_rejected(self):
        # the compact form is a test oracle (conftest.pf_compact), not a route
        with pytest.raises(ValueError):
            ab.pf_at(Atom(1.0, 1.0), GaussianProduct(1.0, 1.0), 0.5, method="compact")

    def test_inner_integral_needs_a_state_family(self):
        atom = Atom(1.0, 1.0)
        for derivatives in (False, True):
            with pytest.raises(UnsupportedFamilyError):
                ab.decayed_inner(atom, CoherentDrive(1.0, 1.0, 1.0, 1.0), [0.0],
                                 derivatives=derivatives)
        # nothing optimizes the matched state: it has no field derivatives
        with pytest.raises(UnsupportedFamilyError):
            ab.decayed_inner(atom, OptimalState(atom), [0.0], derivatives=True)


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
            a = pf_quadrature(atom, st, t, 1e-10)
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

    def test_independent_of_the_fast_route(self, monkeypatch):
        # an oracle that shared the fast route's inner kernel would repeat
        # its errors instead of catching them
        atom = Atom(2.0, 1.0)
        cases = [(GaussianProduct(1.1, 1.9, 1.2), 2.0),
                 (EntangledGaussian(1.03, 10.82, 0.19), 1.0),
                 (RisingExpProduct(*ab.rising_optimal_params(atom)), 0.0),
                 (DecayingExpProduct(4.72070, 4.72814, -0.060423), 0.99243),
                 (OptimalState(atom, t_star=0.4), 0.4)]
        expected = [ab.pf_inner_product(atom, st, t) for st, t in cases]
        assert min(expected) > 0.01

        def refuse(*args, **kwargs):
            raise AssertionError("the inner product called another route")

        for name in ("decayed_inner", "curve_amplitudes", "integrate", "integrate_batch"):
            monkeypatch.setattr(ab, name, refuse)
        for cls in FAMILIES.values():
            monkeypatch.setattr(cls, "decayed_inner", refuse)
        assert [ab.pf_inner_product(atom, st, t) for st, t in cases] == expected

    def test_blocks_that_split_rows(self, monkeypatch):
        # test_cross_method_agreement's state, and a decaying pair whose
        # second pulse starts first
        cases = [(Atom(5.0, 1.0), EntangledGaussian(1.03, 10.82, 0.19), 1.0),
                 (Atom(1.42341, 1.0),
                  DecayingExpProduct(4.72070, 4.72814, -0.060423), 0.99243)]
        default = [ab.pf_inner_product(*case) for case in cases]
        tracemalloc.start()
        try:
            ab.pf_inner_product(*cases[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
        # one 32-node panel per block: every block boundary falls inside a row
        monkeypatch.setattr(ab, "_BLOCK_PAIRS", 40)
        for case, value in zip(cases, default):
            assert ab.pf_inner_product(*case) == pytest.approx(value, rel=1e-15, abs=0)


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

    def test_maxima_are_pinned(self):
        # recorded bit for bit from the scan, refiner and gradient that all
        # read one set of outer panels; the rising pair and the matched
        # state peak at their support end, which the refiner takes as a
        # sample. The values before, when each refiner trial and the
        # gradient built panels of their own, bound the move: p_max by 1e-14
        # relative, t* by the refiner's xtol 1e-6/gamma_f and the gradient
        # by 1e-6 of its largest entry (the rising pair's second entry is
        # rounding noise about zero)
        atom = Atom(2.0, 1.0)
        cases = [
            (atom, GaussianProduct(1.1, 1.9, 1.2), 1.9289952391422636, 0.39955002365222153,
             [0.06310658432803178, 0.004402272870424502, -0.11927167341962332],
             (1.928995239142264, 0.39955002365222153,
              [0.06310658432803158, 0.004402272870424391, -0.11927167341962289])),
            (atom, EntangledGaussian(1.03, 10.82, 0.19), 1.2086640515132094,
             0.4745949347098089,
             [-0.0008406831577396675, -0.009529024034884781, 0.8413723362689153],
             (1.2086640515132085, 0.4745949347098089,
              [-0.0008406831577395459, -0.00952902403488478, 0.8413723362689152])),
            (atom, RisingExpProduct(0.5, 1.5), 0.0, 0.42666666666666686,
             [0.22755555555555582, 1.4101726366812804e-16],
             (0.0, 0.4266666666666659, [0.22755555555555573, 1.249925746149317e-16])),
            (atom, DecayingExpProduct(0.9, 2.3, 0.4), 1.78071877213913, 0.17953856758812586,
             [0.09617137206885863, -0.03673304621291347, 0.15365224563742508],
             (1.7807182721391337, 0.17953856758812575,
              [0.09617139262471051, -0.03673301293817639, 0.15365218081580254])),
            (Atom(2.0, 1.0, 0.7, -0.4), GaussianProduct(1.1, 1.9, 1.2), 1.901742013594419,
             0.31668441447499446,
             [0.0981018561896124, 0.003336484005674074, -0.12071121741988883],
             (1.901742013594419, 0.3166844144749943,
              [0.09810185618961241, 0.003336484005674056, -0.12071121741988876])),
        ]
        for at, st, tm, pm, grad, (tm_before, pm_before, grad_before) in cases:
            t_max, p_max, g = ab.pf_max_over_t(at, st, gradient=True)
            assert (t_max, p_max, g.tolist()) == (tm, pm, grad)
            assert abs(p_max - pm_before) <= 1e-14 * pm_before
            assert abs(t_max - tm_before) <= 1e-6 / at.gamma_f
            assert np.max(np.abs(g - grad_before)) <= 1e-6 * np.max(np.abs(grad_before))
        assert ab.pf_max_over_t(atom, OptimalState(atom, t_star=0.4)) == (0.4, 1.0000000000000004)

    @pytest.mark.parametrize("gradient", [False, True])
    def test_one_panel_pass_per_maximum(self, monkeypatch, gradient):
        # the scan, the refiner's trials and the gradient read one set of
        # outer panels: one `_outer_edges` and one kernel call, with the
        # field derivatives exactly when the gradient is asked for
        calls = []
        kernel, edges = ab.decayed_inner, ab._outer_edges

        def counted_kernel(atom, state, t2, derivatives=False):
            calls.append(("decayed_inner", derivatives))
            return kernel(atom, state, t2, derivatives)

        def counted_edges(*args):
            calls.append(("_outer_edges", None))
            return edges(*args)

        monkeypatch.setattr(ab, "decayed_inner", counted_kernel)
        monkeypatch.setattr(ab, "_outer_edges", counted_edges)
        for atom, st in [(Atom(2.0, 1.0, 0.3, -0.2), EntangledGaussian(1.03, 10.82, 0.19)),
                         (Atom(1.0, 1.0), RisingExpProduct(0.5, 1.5)),
                         (Atom(0.5, 1.0), DecayingExpProduct(1.5, 0.8, -0.7))]:
            calls.clear()
            ab.pf_max_over_t(atom, st, gradient=gradient)
            assert sorted(calls) == [("_outer_edges", None), ("decayed_inner", gradient)]

    def test_truncated_optimal_hits_bound(self, rng):
        for k in range(6):
            ge = 10 ** rng.uniform(-0.7, 0.7)
            h = rng.uniform(0.3, 8.0)
            atom = Atom(ge, 1.0)
            st = OptimalState(atom, 0.0, -h)
            _, pm = ab.pf_max_over_t(atom, st)
            assert pm == pytest.approx(pmax_bound(atom, h), abs=1e-4)


def _gradient_cases(rng, n=200):
    """n seeded (atom, state) pairs, the four optimizable families in turn,
    every other pair resonant, plus pinned cases: an entangled pair at
    kappa = 0 up to rounding, and decaying pairs whose second pulse starts
    before and after the first."""
    families = ("gaussian_product", "entangled_gaussian", "rising_exp", "decaying_exp")
    cases = [(random_atom(rng, resonant=i % 8 < 4), random_state(rng, families[i % 4]))
             for i in range(n)]
    return cases + [(Atom(2.0, 1.0, 0.5, -0.3), EntangledGaussian(1.3, 1.3 * (1 + 1e-12), 0.4)),
                    (Atom(0.5, 1.0), DecayingExpProduct(1.5, 0.8, -0.7)),
                    (Atom(3.0, 1.0, -0.4, 0.6), DecayingExpProduct(0.9, 1.3, 1.5))]


def _gradient_at(atom, st, t):
    """dP_f(t)/d(field) from the outer panels of `pf_max_over_t`'s scan."""
    panels = ab._OuterPanels(atom, st, ab.scan_bounds(atom, st)[1], derivatives=True)
    return panels.gradient(t)


class TestFieldGradient:
    """d p_max/d(field) of `pf_max_over_t` against central differences of
    the fast route at fixed t*."""

    def test_matches_difference_quotients(self, rng):
        hit = {"unsafe_erfcx": 0, "safe_erfcx": 0, "shift_negative": 0,
               "shift_positive": 0, "kappa_zero": 0}
        worst = 0.0
        for atom, st in _gradient_cases(rng):
            t, p, grad = ab.pf_max_over_t(atom, st, gradient=True)
            assert (t, p) == ab.pf_max_over_t(atom, st)  # bit for bit
            names = [f.name for f in dataclasses.fields(st)]
            assert grad.shape == (len(names),)
            for name, g in zip(names, grad):
                v = getattr(st, name)
                h = 1e-5 * (v if name.startswith("omega") else 1.0)
                up, down = (ab.pf_at(atom, dataclasses.replace(st, **{name: v + s}), t,
                                     method="fast") for s in (h, -h))
                ref = (up - down) / (2.0 * h)
                if abs(ref) > 1e-3:
                    worst = max(worst, abs(g - ref) / abs(ref))
                    assert g == pytest.approx(ref, rel=1e-6), (atom, st, name)
            if isinstance(st, GaussianProduct):
                # the kernel's erfcx branch flips at t2 = ge/omega1^2
                split = atom.gamma_e / st.omega1**2
                hit["unsafe_erfcx"] += min(t, st.support2()[1]) > split
                hit["safe_erfcx"] += st.support2()[0] < split
            if isinstance(st, DecayingExpProduct):
                hit["shift_negative"] += st.t_shift < 0
                hit["shift_positive"] += st.t_shift > 0
            if isinstance(st, EntangledGaussian):
                hit["kappa_zero"] += abs(st._ridge()[1]) < 1e-9
        assert all(hit.values()), hit
        assert worst < 1e-6

    def test_decaying_gradient_is_continuous_at_zero_shift(self):
        # at t_shift = 0 the second derivative in t_shift jumps, so central
        # quotients are off by O(h) there; the two one-sided limits agree
        atom = Atom(1.0, 1.0)
        t, _, grad = ab.pf_max_over_t(atom, DecayingExpProduct(0.9, 1.3, 0.0), gradient=True)
        for shift in (-1e-8, 1e-8):
            side = _gradient_at(atom, DecayingExpProduct(0.9, 1.3, shift), t)
            assert side == pytest.approx(grad, rel=1e-7)

    def test_states_outside_the_second_pulse_have_zero_gradient(self):
        atom = Atom(1.0, 1.0)
        st = DecayingExpProduct(1.0, 1.0, 2.0)
        grad = _gradient_at(atom, st, 1.0)
        assert np.array_equal(grad, np.zeros(3))


def _dense_max(atom, st, n=20001, levels=3):
    """Largest P_f on a dense grid, re-gridded around its argmax per level."""
    lo, hi = ab.scan_bounds(atom, st)
    for _ in range(levels):
        t = np.linspace(lo, hi, n)
        p = ab._pf_from_amp(atom, np.abs(ab.curve_amplitudes(atom, st, t)))
        j = int(np.argmax(p))
        lo, hi = t[max(j - 1, 0)], t[min(j + 1, n - 1)]
        n = 2001
    return t[j], p[j]


# (atom, state, t0) across the optimizer's search box: widths 1e-3..1e3
# gamma_f, omega_plus/omega_minus = 1e-6, |delta| up to 50, and states whose
# probability peaks at a kink (support end of the rising and matched states).
# t0 is where the interaction starts: the routes take no start, so a state
# that starts at a finite t0 carries it in its own support
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
        _, pm = ab.pf_max_over_t(atom, st)
        _, p_dense = _dense_max(atom, st)
        assert abs(pm - p_dense) <= 5e-7 * p_dense

    @pytest.mark.parametrize("atom,st,t0", _BOX)
    def test_max_dominates_and_bounds_hold(self, atom, st, t0, rng):
        tm, pm = ab.pf_max_over_t(atom, st)
        lo, hi = ab.scan_bounds(atom, st)
        start = min(st.support1()[0], st.support2()[0])
        assert start >= t0
        for t in np.append(rng.uniform(lo, hi, size=12), tm):
            p = ab.pf_at(atom, st, float(t))
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
            quad = pf_quadrature(atom, st, t, 1e-11)
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
            quad = pf_quadrature(atom, st, t, 1e-11)
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
            quad = pf_quadrature(atom, st, t, 1e-11)
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
            tau = ab.residence_time(atom, OptimalState(atom, 0.0, -h))
            assert tau <= 2.0 / atom.gamma_f + 1e-3

    def test_long_drives_exceed_two_but_not_four_lifetimes(self):
        # quasi-stationary drives push the residence time past 2/gamma_f;
        # the spectral ceiling of the matched-filter Gram operator is
        # 4/gamma_f and is never exceeded
        atom = Atom(1.0, 1.0)
        tau = ab.residence_time(atom, EntangledGaussian(0.05, 2.0, 1.0))
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

    @pytest.mark.parametrize("n_times", [0, 1])
    def test_scan_of_fewer_than_two_times_rejected(self, n_times):
        # one time cannot bracket the maximum: the matched state's maximum is
        # 1 at t* = 0, and a one-time scan would report the window start
        atom = Atom(1.0, 1.0)
        with pytest.raises(ValueError, match="at least 2 times"):
            ab.excitation_curve(atom, OptimalState(atom, 0.0), n_times=n_times)

    @pytest.mark.parametrize("order", ["reversed", "shuffled", "repeated"])
    def test_scan_times_not_ascending_rejected(self, order):
        # amplitudes accumulate forward in time up to the last time, so a
        # reversed scan would give P_f = 0 at every time (against a maximum
        # of 0.555 ascending) and a shuffled one a maximum 1e-5 low; the
        # check sits in curve_amplitudes, which excitation_curve calls
        atom = Atom(1.0, 1.0)
        st = GaussianProduct(1.1, 1.9, 1.2)
        times = np.linspace(*ab.scan_bounds(atom, st), 200)
        bad = {"reversed": times[::-1],
               "shuffled": np.random.default_rng(5).permutation(times),
               "repeated": np.append(times, times[-1])}[order]
        with pytest.raises(ValueError, match="strictly ascending"):
            ab.curve_amplitudes(atom, st, bad)


def _state_eval_cases(seeds=(1, 2, 3)):
    """The (atom, state) pairs of the benchmark's `state-eval` workload."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))  # workloads imports its sibling oracles
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(bench))
    return [op for seed in seeds for op in workloads.StateEval(seed).ops]


def _curve_time_sets(atom, st):
    """Scans of 1, 2, 200 and 4000 times over the transient bracket, and
    one set with every outer edge, the panel midpoints, hi2, a time before
    lo2 and two past hi2."""
    lo, hi = ab.scan_bounds(atom, st)
    lo2, hi2 = st.support2()
    edges = ab._outer_edges(atom, st, lo2, hi2)
    special = np.concatenate([[lo2 - 1.0], edges, 0.5 * (edges[1:] + edges[:-1]),
                              [hi2 + 0.5, hi2 + 3.0]])
    return ([np.array([0.5 * (lo + hi)])]
            + [np.linspace(lo, hi, n) for n in (2, 200, 4000)] + [np.unique(special)])


def _largest_move(atom, st):
    """Largest |P_f - P_f(time-split reference)| over `_curve_time_sets`,
    relative to the reference's largest P_f."""
    worst = 0.0
    for times in _curve_time_sets(atom, st):
        new = ab._pf_from_amp(atom, np.abs(ab.curve_amplitudes(atom, st, times)))
        ref = ab._pf_from_amp(atom, np.abs(curve_amplitudes_time_split(atom, st, times)))
        scale = ref.max()
        move = np.max(np.abs(new - ref))
        worst = max(worst, move / scale if scale > 0 else (0.0 if move == 0 else np.inf))
    return worst


class TestCurveAmplitudes:
    """Sample times read off each outer panel's Legendre antiderivative,
    against the reference that makes every time a panel edge."""

    def test_matches_time_split_reference_on_seeded_states(self, rng):
        cases = [(random_atom(rng, resonant=i % 2 == 0), random_state(rng))
                 for i in range(300)]
        worst = max(_largest_move(atom, st) for atom, st in cases + _state_eval_cases())
        assert worst <= 1e-13

    @pytest.mark.parametrize("atom,st,t0", _BOX)
    def test_matches_time_split_reference_over_the_box(self, atom, st, t0):
        assert _largest_move(atom, st) <= 1e-10

    def test_one_time_is_bitwise_the_reference(self, rng):
        # pf_at's single time is the last outer edge, or lies past hi2
        for i in range(100):
            atom, st = random_atom(rng, resonant=i % 2 == 0), random_state(rng)
            lo, hi = ab.scan_bounds(atom, st)
            for t in (*rng.uniform(lo, hi, size=3), st.support2()[1], hi):
                ref = curve_amplitudes_time_split(atom, st, np.array([t]))[0]
                assert ab.pf_at(atom, st, t) == float(ab._pf_from_amp(atom, abs(ref)))

    def test_kernel_nodes_do_not_grow_with_the_times(self, monkeypatch):
        atom, st = Atom(2.0, 1.0, 0.3, -0.2), EntangledGaussian(1.03, 10.82, 0.19)
        kernel, nodes = ab.decayed_inner, []

        def counted(atom, state, t2, derivatives=False):
            nodes[-1] += np.size(t2)
            return kernel(atom, state, t2, derivatives)

        monkeypatch.setattr(ab, "decayed_inner", counted)
        for n in (2, 200, 4000):
            nodes.append(0)
            ab.curve_amplitudes(atom, st, np.linspace(*ab.scan_bounds(atom, st), n))
        assert nodes[0] > 0
        assert nodes == [nodes[0]] * 3

    def test_legendre_rows_are_legvanders(self, rng):
        # sample times read the rows bit for bit as numpy's legvander gives
        # them, at one point and at many; the derivative rows feed the slope
        u = rng.uniform(-1.0, 1.0, 300)
        assert np.array_equal(ab._legendre(u, 24), np.polynomial.legendre.legvander(u, 24))
        for x in u[:20]:
            p, dp = ab._legendre(float(x), 24, derivatives=True)
            assert np.array_equal(p, np.polynomial.legendre.legvander(x, 24)[0])
            ref = [np.polynomial.legendre.Legendre.basis(i).deriv()(x) for i in range(25)]
            assert dp == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the routes disagree on the "
                   "widest entangled state of the search box")
def test_fast_matches_quadrature_on_the_widest_entangled_state():
    # at t* = 2.0008 the fast route reads 3.99e-6, the quadrature route
    # 1.60e-6 and the inner product 4.20e-6; at t = 547.7 they read 2.97e-6,
    # 5.6e-242 and 3.35e-6
    atom, st = Atom(1.0, 1.0), EntangledGaussian(1e-3, 1e3, 0.0)
    t, _ = ab.pf_max_over_t(atom, st)
    assert ab.pf_at(atom, st, t) == pytest.approx(ab._pf_at_quadrature(atom, st, t, 1e-9),
                                                  rel=1e-9)


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
