import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tpaopt.model import Atom
from tpaopt.states import (FAMILIES, DecayingExpProduct, EntangledGaussian,
                           GaussianProduct, GridTooCoarseError, OptimalState,
                           RisingExpProduct, SchmidtResult,
                           UnsupportedFamilyError, from_fields,
                           hermite_mode, norm_check, schmidt_analytic,
                           schmidt_numeric, spectral_densities)
from conftest import random_atom, random_state


def state_from_dict(d):
    """Inverse of each family's to_dict; raises on unknown family tags."""
    try:
        cls = FAMILIES[d.get("family")]
    except KeyError as exc:
        raise UnsupportedFamilyError(
            f"unknown family {d.get('family')!r}; choose from {', '.join(FAMILIES)}") from exc
    if cls is OptimalState:
        return OptimalState(Atom(d["gamma_e"], d["gamma_f"]), d.get("t_star", 0.0),
                            -np.inf if d.get("t0") is None else d["t0"])
    return from_fields(cls, d)


class TestAmplitudes:
    def test_gaussian_product_peak(self):
        st_ = GaussianProduct(1.0, 1.0, 0.0)
        assert st_.amplitude(0.0, 0.0) == pytest.approx((1 / (2 * np.pi)) ** 0.5,
                                                        rel=1e-12)

    def test_optimal_vanishes_for_reversed_order(self):
        st_ = OptimalState(Atom(1.0, 1.0), 0.0)
        assert st_.amplitude(-1.0, -0.5) == 0.0
        assert st_.amplitude(0.5, -1.0) == 0.0  # t2 past t_star

    def test_entangled_value(self):
        # direct evaluation of the defining Gaussian, independent arithmetic
        st_ = EntangledGaussian(1.0, 2.0, 0.0)
        expected = math.sqrt(2.0 / (2 * math.pi)) * math.exp(
            -(0.0) ** 2 / 8.0 - 4.0 * 4.0 / 8.0 * 1.0 / 2.0)
        # omega_minus^2 (t2 - t1)^2 / 8 = 4*4/8 = 2
        expected = math.sqrt(2.0 / (2 * math.pi)) * math.exp(-2.0)
        assert st_.amplitude(1.0, -1.0) == pytest.approx(expected, rel=1e-12)
        assert st_.amplitude(1.0, -1.0) == pytest.approx(0.07635, abs=5e-6)

    def test_rising_support(self):
        st_ = RisingExpProduct(0.5, 1.5)
        assert st_.amplitude(0.5, -1.0) == 0.0
        assert st_.amplitude(-0.5, 0.2) == 0.0
        assert st_.amplitude(-0.5, -1.0) > 0

    def test_decaying_support(self):
        st_ = DecayingExpProduct(1.0, 2.0, 0.7)
        assert st_.amplitude(0.5, 0.1) == 0.0   # t2 before shift
        assert st_.amplitude(1.0, -0.1) == 0.0  # t1 before zero
        assert st_.amplitude(1.0, 0.1) > 0


class TestNormalization:
    def test_gaussian_window_example(self):
        res = norm_check(GaussianProduct(1.0, 1.0, 0.0))
        assert abs(res - 1.0) < 1e-8

    def test_rising_window_example(self):
        res = norm_check(RisingExpProduct(0.5, 1.5))
        assert abs(res - 1.0) < 1e-8

    def test_optimal_truncated_window(self):
        res = norm_check(OptimalState(Atom(5.0, 1.0), 0.0))
        assert abs(res - 1.0) < 1e-8

    def test_all_families_random(self, rng):
        for _ in range(10):
            st_ = random_state(rng)
            assert abs(norm_check(st_) - 1.0) < 1e-8, st_


def test_inner_scale_never_exceeds_t2_scale(rng):
    # absorption._outer_edges sizes the t2 panels by inner_scale alone
    for family in FAMILIES:
        for _ in range(200):
            st_, atom = random_state(rng, family), random_atom(rng)
            assert st_.inner_scale(atom) <= st_.t2_scale(), (st_, atom)


class TestSchmidtAnalytic:
    def test_product_state(self):
        res = schmidt_analytic(EntangledGaussian(1.3, 1.3, 0.5))
        assert res.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(res.coefficients[1:] == 0)
        assert res.entropy_bits == 0.0

    def test_widths_one_ulp_apart_are_a_product_state(self):
        res = schmidt_analytic(EntangledGaussian(0.2, 0.20000000000000004, 0.0))
        assert res.entropy_bits == 0.0
        assert np.all(res.coefficients[1:] == 0)

    def test_one_three(self):
        res = schmidt_analytic(EntangledGaussian(1.0, 3.0, 0.0), n_max=200)
        assert res.coefficients[0] == pytest.approx(math.sqrt(3) / 2, rel=1e-12)
        ratios = res.coefficients[1:6] / res.coefficients[:5]
        assert np.allclose(ratios, 0.5, atol=1e-12)
        assert np.sum(res.coefficients**2) == pytest.approx(1.0, abs=1e-12)
        assert res.entropy_bits == pytest.approx(1.0817042, abs=1e-6)

    def test_fig6_like_parameters(self):
        # independent oracle: direct series summation of -sum u^2 log2 u^2
        om_p, om_m = 1.0, 10.82
        y = ((om_m - om_p) / (om_m + om_p)) ** 2
        n = np.arange(300)
        u2 = (1 - y) * y**n
        u2 = u2[u2 > 0]
        s_series = float(-np.sum(u2 * np.log2(u2)))
        res = schmidt_analytic(EntangledGaussian(om_p, om_m, 0.19), n_max=64)
        assert y == pytest.approx(0.6902208, abs=1e-7)
        assert s_series == pytest.approx(2.8824349, abs=1e-6)
        assert res.entropy_bits == pytest.approx(s_series, abs=1e-9)

    def test_swap_symmetry(self):
        a = schmidt_analytic(EntangledGaussian(0.7, 2.9, 0.0), n_max=40)
        b = schmidt_analytic(EntangledGaussian(2.9, 0.7, 0.0), n_max=40)
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-14)
        assert a.entropy_bits == pytest.approx(b.entropy_bits, abs=1e-14)

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_weights_sum_to_one(self, om_p, om_m):
        res = schmidt_analytic(EntangledGaussian(om_p, om_m, 0.0), n_max=400)
        assert np.sum(res.coefficients**2) == pytest.approx(1.0, abs=1e-9)
        assert res.entropy_bits >= 0.0

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_entropy_zero_iff_product(self, om_p, om_m):
        res = schmidt_analytic(EntangledGaussian(om_p, om_m, 0.0), n_max=64)
        if abs(om_p - om_m) < 1e-12:
            assert res.entropy_bits == 0.0
        if res.coefficients[0] > 1.0 - 1e-9:
            assert res.entropy_bits < 1e-7
        if abs(om_p - om_m) > 1e-4 * (om_p + om_m):
            assert res.entropy_bits > 0.0
            assert res.coefficients[0] < 1.0


class TestSchmidtNumeric:
    def test_product_state_entropy_tiny(self):
        res = schmidt_numeric(GaussianProduct(1.0, 2.0, 0.5), n=200, max_n=400)
        assert res.entropy_bits < 1e-6

    def test_matches_analytic(self):
        st_ = EntangledGaussian(1.0, 3.0, 0.0)
        num = schmidt_numeric(st_, n=400)
        ana = schmidt_analytic(st_, n_max=30)
        assert num.entropy_bits == pytest.approx(ana.entropy_bits, abs=1e-4)
        k = min(10, num.coefficients.size)
        assert np.allclose(num.coefficients[:k], ana.coefficients[:k], atol=1e-5)

    def test_truncation_error_bookkeeping(self):
        res = schmidt_numeric(EntangledGaussian(0.8, 2.4, 0.0), n=400)
        assert 0.0 <= res.truncation_error < 1e-6
        d = np.diff(res.coefficients)
        assert np.all(d <= 1e-12)

    def test_optimal_state_small_ratio_entropy(self):
        # slow-intermediate regime: nearly separable
        res = schmidt_numeric(OptimalState(Atom(0.01, 1.0), 0.0),
                              n=400, entropy_tol=1e-3)
        assert res.entropy_bits < 0.1

    def test_optimal_state_numeric_tracks_exact_spectrum(self):
        from tpaopt.optimal import optimal_entropy_bits, optimal_schmidt_weights
        atom = Atom(0.05, 1.0)
        num = schmidt_numeric(OptimalState(atom, 0.0), n=400, entropy_tol=1e-3)
        exact = optimal_entropy_bits(atom)
        # the harmonic Schmidt tail biases the grid entropy slightly low
        assert num.entropy_bits == pytest.approx(exact, abs=0.02)
        lam = optimal_schmidt_weights(atom, 8)
        assert num.coefficients[0] ** 2 == pytest.approx(lam[0], abs=1e-3)

    def test_grid_too_coarse_raises(self):
        with pytest.raises(GridTooCoarseError):
            schmidt_numeric(EntangledGaussian(1.0, 40.0, 0.0), n=16, max_n=32)


class TestHermiteModes:
    def test_orthonormality(self):
        st_ = EntangledGaussian(1.0, 2.5, 0.0)
        t = np.linspace(-25, 25, 6001)
        modes = [hermite_mode(st_, n)(t) for n in range(6)]
        for i in range(6):
            for j in range(6):
                ip = np.trapezoid(modes[i] * modes[j], t)
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    def test_reconstruction(self):
        st_ = EntangledGaussian(1.0, 2.5, 0.4)
        res = schmidt_analytic(st_, n_max=80)
        sign = np.sign(st_.omega_minus - st_.omega_plus)
        t1 = np.array([-0.7, 0.2, 1.1])
        t2 = np.array([0.3, 0.9, -0.2])
        rec = np.zeros(3)
        for n in range(81):
            u_signed = res.coefficients[n] * sign**n
            rec += u_signed * hermite_mode(st_, n)(t2 - st_.mu) * hermite_mode(st_, n)(t1)
        assert np.allclose(rec, st_.amplitude(t2, t1), atol=1e-10)

    def test_high_order_finite(self):
        st_ = EntangledGaussian(1.0, 1.5, 0.0)
        vals = hermite_mode(st_, 150)(np.linspace(-10, 10, 101))
        assert np.all(np.isfinite(vals))


class TestSpectralDensities:
    def test_entangled_sum_peak(self):
        st_ = EntangledGaussian(1.0, 2.0, 0.0)
        d = spectral_densities(st_)
        assert d.sum_density(0.0) == pytest.approx(1.0 / (math.sqrt(math.pi) * 1.0),
                                                   rel=1e-12)

    def test_entangled_variances(self):
        st_ = EntangledGaussian(1.3, 3.7, 0.0)
        op2, om2 = 1.3**2, 3.7**2
        assert st_.sigma_t2 == pytest.approx((op2 + om2) / (2 * op2 * om2), rel=1e-12)
        assert st_.sigma_w2 == pytest.approx((op2 + om2) / 8.0, rel=1e-12)

    def test_normalized(self):
        st_ = EntangledGaussian(0.8, 2.2, 0.0)
        d = spectral_densities(st_)
        x = np.linspace(-60, 60, 40001)
        for f in (d.marginal1, d.sum_density, d.diff_density):
            assert np.trapezoid(f(x), x) == pytest.approx(1.0, abs=1e-8)

    def test_optimal_diff_width(self):
        atom = Atom(2.0, 1.0)
        d = spectral_densities(OptimalState(atom, 0.0))
        fwhm = atom.gamma_f + 2 * atom.gamma_e
        peak = d.diff_density(0.0)
        assert d.diff_density(fwhm / 2) == pytest.approx(peak / 2, rel=1e-12)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            spectral_densities(RisingExpProduct(1.0, 2.0))


class TestSerialization:
    def test_round_trip_all_families(self, rng):
        for fam in FAMILIES:
            st_ = random_state(rng, fam)
            d = st_.to_dict()
            back = state_from_dict(d)
            assert back.to_dict() == d

    def test_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            state_from_dict({"family": "chirped"})
