import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpaopt.model import Atom
from tpaopt.optimal import (arrival_densities, arrival_expectations,
                            conditional_2_given_1, optimal_entropy_bits,
                            optimal_normalization, optimal_schmidt_weights,
                            pmax_bound, spectral_marginal_1,
                            spectral_marginal_2, sum_diff_densities)
from tpaopt.quadrature import integrate
from tpaopt.states import OptimalState, norm_check


class TestPmaxBound:
    def test_boundary_limits(self):
        atom = Atom(1.3, 0.7)
        assert pmax_bound(atom, 0.0) == 0.0
        assert pmax_bound(atom, np.inf) == 1.0

    def test_distinct_rates_value(self):
        # 1 - (2 e^{-1} - e^{-2}) for gamma_e=1, gamma_f=2, h=1
        val = pmax_bound(Atom(1.0, 2.0), 1.0)
        assert val == pytest.approx(1.0 - (2 * math.exp(-1) - math.exp(-2)),
                                    rel=1e-12)
        assert val == pytest.approx(0.39958, abs=5e-6)

    def test_equal_rates_value(self):
        val = pmax_bound(Atom(1.0, 1.0), 2.0)
        assert val == pytest.approx(1.0 - 3.0 * math.exp(-2), rel=1e-12)
        assert val == pytest.approx(0.59399, abs=5e-6)

    def test_continuous_across_equal_rates(self):
        h = 1.7
        left = pmax_bound(Atom(1.0 - 1e-9, 1.0), h)
        mid = pmax_bound(Atom(1.0, 1.0), h)
        right = pmax_bound(Atom(1.0 + 1e-9, 1.0), h)
        assert abs(left - mid) < 1e-9
        assert abs(right - mid) < 1e-9

    def test_fast_intermediate_state_long_horizon(self):
        # 1 - e^{-ge h} - ge/(ge - gf) (e^{-gf h} - e^{-ge h}), also where
        # e^{(ge - gf) h} alone would overflow a double ((ge - gf) h > 709)
        atom = Atom(100.0, 1.0)
        for h in (7.0, 7.2, 8.0, 30.0, 1e5):
            exact = 1.0 - 100.0 / 99.0 * math.exp(-h)
            assert pmax_bound(atom, h) == pytest.approx(exact, rel=1e-12)
        assert pmax_bound(Atom(1e3, 1e-3), 1e6) == pytest.approx(1.0, rel=1e-12)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            pmax_bound(Atom(1.0, 1.0), -0.1)

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0),
           st.floats(0.0, 30.0), st.floats(0.001, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_horizon_and_rates(self, ge, gf, h, dh):
        atom = Atom(ge, gf)
        assert pmax_bound(atom, h + dh) >= pmax_bound(atom, h) - 1e-12
        assert pmax_bound(Atom(ge * 1.1, gf), h) >= pmax_bound(atom, h) - 1e-12
        assert pmax_bound(Atom(ge, gf * 1.1), h) >= pmax_bound(atom, h) - 1e-12


class TestSpectralDensities:
    def test_marginal1_peak(self):
        atom = Atom(0.8, 1.0)
        p1 = spectral_marginal_1(atom)
        assert p1(0.0) == pytest.approx(2.0 / (np.pi * atom.gamma_e), rel=1e-12)

    def test_marginal2_fwhm(self):
        atom = Atom(2.0, 1.0)
        p2 = spectral_marginal_2(atom)
        fwhm = atom.gamma_e + atom.gamma_f
        assert p2(fwhm / 2) == pytest.approx(p2(0.0) / 2, rel=1e-12)

    def test_sum_diff_widths(self):
        atom = Atom(3.0, 1.0)
        ps, pd = sum_diff_densities(atom)
        assert ps(atom.gamma_f / 2) == pytest.approx(ps(0.0) / 2, rel=1e-12)
        w = atom.gamma_f + 2 * atom.gamma_e
        assert pd(w / 2) == pytest.approx(pd(0.0) / 2, rel=1e-12)

    def test_normalization_with_tail(self):
        # Lorentzians shed ~1/(pi*L) beyond +-L; quadrature over +-1000 widths
        # plus the analytic arctan tail reconstructs unit mass to 1e-8
        atom = Atom(1.7, 1.0)
        for dens, fwhm in ((spectral_marginal_1(atom), atom.gamma_e),
                           (spectral_marginal_2(atom), atom.gamma_e + atom.gamma_f),
                           (sum_diff_densities(atom)[0], atom.gamma_f),
                           (sum_diff_densities(atom)[1], atom.gamma_f + 2 * atom.gamma_e)):
            lim = 1000.0 * fwhm
            core = integrate(lambda x: dens(x), -lim, lim, rel_tol=1e-11,
                             breakpoints=(0.0,)).real
            tail = 1.0 - (2.0 / np.pi) * math.atan(2.0 * lim / fwhm)
            assert core + tail == pytest.approx(1.0, abs=1e-8)
            assert core == pytest.approx(1.0, abs=1e-3)

    def test_conditional_centered_at_minus_delta1(self):
        atom = Atom(1.0, 1.0)
        cond = conditional_2_given_1(atom, 0.9)
        x = np.linspace(-6, 6, 2001)
        assert x[np.argmax(cond(x))] == pytest.approx(-0.9, abs=0.01)

    def test_conditional_times_marginal_is_normalized_joint(self):
        # the reconstructed joint density integrates to one; Lorentzian
        # windows are completed with their analytic arctan tails
        atom = Atom(1.4, 1.0)
        p1 = spectral_marginal_1(atom)

        def inner_mass(x):
            cond = conditional_2_given_1(atom, x)
            lim = 1000.0 * atom.gamma_f
            core = integrate(lambda y: cond(y), -x - lim, -x + lim,
                             rel_tol=1e-11, breakpoints=(-x,)).real
            tail = 1.0 - (2.0 / np.pi) * math.atan(2.0 * lim / atom.gamma_f)
            return core + tail

        lim1 = 1000.0 * atom.gamma_e
        core = integrate(lambda x: np.array([p1(v) * inner_mass(v)
                                             for v in np.atleast_1d(x)]),
                         -lim1, lim1, rel_tol=1e-10, breakpoints=(0.0,)).real
        tail1 = 1.0 - (2.0 / np.pi) * math.atan(2.0 * lim1 / atom.gamma_e)
        assert core + tail1 == pytest.approx(1.0, abs=1e-6)

    def test_marginals_similar_at_large_ratio(self):
        atom = Atom(100.0, 1.0)
        p1 = spectral_marginal_1(atom)
        p2 = spectral_marginal_2(atom)
        x = np.linspace(-200, 200, 2001)
        assert np.max(np.abs(p2(x) - p1(x)) / p1(x)) < 0.02


class TestArrivalStatistics:
    def test_expectation_gap(self):
        atom = Atom(2.5, 1.0)
        tau1, tau2 = arrival_expectations(atom, 0.3)
        assert tau2 - tau1 == pytest.approx(1.0 / atom.gamma_e, rel=1e-12)
        assert tau2 == pytest.approx(0.3 - 1.0 / atom.gamma_f, rel=1e-12)

    def test_marginals_normalized(self):
        atom = Atom(0.7, 1.0)
        _, p1, p2 = arrival_densities(atom, 0.0)
        i2 = integrate(lambda t: p2(t), -120.0, 0.0, rel_tol=1e-11).real
        i1 = integrate(lambda t: p1(t), -120.0, 0.0, rel_tol=1e-11).real
        assert i2 == pytest.approx(1.0, abs=1e-8)
        assert i1 == pytest.approx(1.0, abs=1e-8)

    def test_marginals_are_joint_integrals(self):
        atom = Atom(1.6, 1.0)
        p_joint, p1, p2 = arrival_densities(atom, 0.0)
        for t1 in (-3.0, -1.0, -0.2):
            val = integrate(lambda t2: p_joint(t2, t1), t1, 0.0,
                            rel_tol=1e-11).real
            assert val == pytest.approx(p1(t1), rel=1e-8)
        for t2 in (-2.0, -0.5):
            val = integrate(lambda t1: p_joint(t2, t1), t2 - 80.0, t2,
                            rel_tol=1e-11).real
            assert val == pytest.approx(p2(t2), rel=1e-8)

    def test_equal_rate_limit_stable(self):
        _, p1, _ = arrival_densities(Atom(1.0, 1.0), 0.0)
        # gamma^2 * tau * e^{-gamma tau}
        assert p1(-2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-10)

    def test_fast_intermediate_limit(self):
        # p1 approaches gamma_f e^{-gamma_f (t*-t)} for gamma_e >> gamma_f
        atom = Atom(100.0, 1.0)
        _, p1, _ = arrival_densities(atom, 0.0)
        t = np.linspace(-6.0, -0.2, 200)
        ref = atom.gamma_f * np.exp(-atom.gamma_f * (0.0 - t))
        assert np.max(np.abs(p1(t) - ref) / ref) < 0.03

    def test_slow_intermediate_limit(self):
        # the limit form holds once tau exceeds a few final-state lifetimes
        atom = Atom(0.01, 1.0)
        _, p1, _ = arrival_densities(atom, 0.0)
        t = np.linspace(-300.0, -5.0, 200)
        ref = atom.gamma_e * np.exp(-atom.gamma_e * (0.0 - t))
        assert np.max(np.abs(p1(t) - ref) / ref) < 0.03


class TestNormalizationFactor:
    @pytest.mark.parametrize("ge,gf,t_star,t0", [
        (2.0, 1.0, 0.0, -5.0),
        (1.0, 1.0, 0.0, -4.0),
        (0.3, 1.0, 0.5, -9.0),
    ])
    def test_matches_quadrature_inversion(self, ge, gf, t_star, t0):
        atom = Atom(ge, gf)
        n = optimal_normalization(atom, t_star, t0)
        # invert: integral of exp((gf-ge) t2 + ge t1) over the triangle
        def inner(t2_arr):
            out = []
            for t2 in np.atleast_1d(t2_arr):
                val = integrate(lambda t1: np.exp(ge * t1), t0, t2,
                                rel_tol=1e-12)
                out.append(np.exp((gf - ge) * t2) * val)
            return np.array(out)
        raw = integrate(inner, t0, t_star, rel_tol=1e-12).real
        assert n == pytest.approx(raw, rel=1e-8)

    def test_infinite_start_limit(self):
        atom = Atom(1.7, 1.0)
        n_inf = optimal_normalization(atom, 0.0, -np.inf)
        assert n_inf == pytest.approx(1.0 / (atom.gamma_e * atom.gamma_f),
                                      rel=1e-12)
        n_deep = optimal_normalization(atom, 0.0, -200.0)
        assert n_deep == pytest.approx(n_inf, rel=1e-12)

    def test_normalizes_the_amplitude(self):
        assert norm_check(OptimalState(Atom(2.0, 1.0), 0.0, -5.0)) == \
            pytest.approx(1.0, abs=1e-8)


class TestExactSchmidtSpectrum:
    def test_weights_sum_to_one(self):
        lam = optimal_schmidt_weights(Atom(1.0, 1.0), 4000)
        # harmonic tail: 4000 modes capture all but ~1e-4 of the mass
        assert lam.sum() == pytest.approx(1.0, abs=2e-4)

    def test_separable_limit(self):
        lam = optimal_schmidt_weights(Atom(0.001, 1.0), 4)
        assert lam[0] > 0.999

    def test_entropy_monotone_in_ratio(self):
        ratios = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        ent = [optimal_entropy_bits(Atom(r, 1.0)) for r in ratios]
        assert all(b > a for a, b in zip(ent, ent[1:]))

    def test_ratio_100_exceeds_ratio_1(self):
        assert optimal_entropy_bits(Atom(100.0, 1.0)) > \
            optimal_entropy_bits(Atom(1.0, 1.0))
