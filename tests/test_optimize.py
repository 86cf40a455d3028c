import numpy as np
import pytest

from tpaopt import absorption
from tpaopt.model import Atom
from tpaopt.optimize import (OptimizationProblem, OptimizationResult,
                             asymptotic_checks, default_starts, nelder_mead,
                             optimize_pulse)
from tpaopt.states import EntangledGaussian, schmidt_analytic


def test_nelder_mead_quadratic():
    f = lambda x: (x[0] - 1.3) ** 2 + 2.0 * (x[1] + 0.4) ** 2
    x, fx, nev, conv, diam = nelder_mead(f, np.array([0.0, 0.0]),
                                         np.array([0.5, 0.5]))
    assert conv
    assert np.allclose(x, [1.3, -0.4], atol=1e-4)
    assert fx < 1e-9


def test_nelder_mead_budget_flag():
    f = lambda x: np.sum(x**2)
    x, fx, nev, conv, diam = nelder_mead(f, np.full(3, 5.0), np.full(3, 1.0),
                                         max_evals=10)
    assert not conv
    assert nev <= 10 + 4  # initial simplex evaluations included


def test_rising_optimizer_matches_closed_form():
    for ratio in (0.1, 1.0, 10.0):
        atom = Atom(ratio, 1.0)
        res = optimize_pulse(OptimizationProblem(atom, "rising_exp",
                                                 n_starts=4))
        om1, om2, pm = absorption.pf_max_rising(atom)
        assert res.params["omega1"] == pytest.approx(om1, rel=1e-3)
        assert res.params["omega2"] == pytest.approx(om2, rel=1e-3)
        assert res.p_max == pytest.approx(pm, abs=1e-3)


def test_gaussian_true_optima_at_equal_rates():
    # the two caption parameter sets of the source figure are swapped
    # relative to the delay policies; these are the model's true optima,
    # each matching one printed set (see the swap diagnostic in acceptance)
    atom = Atom(1.0, 1.0)
    free = optimize_pulse(OptimizationProblem(atom, "gaussian_product",
                                              mu_free=True))
    assert free.params["omega1"] == pytest.approx(1.115, rel=0.02)
    assert free.params["omega2"] == pytest.approx(1.956, rel=0.02)
    assert free.params["mu"] == pytest.approx(1.191, rel=0.02)
    assert free.p_max == pytest.approx(0.5555, abs=2e-3)

    zero = optimize_pulse(OptimizationProblem(atom, "gaussian_product",
                                              mu_free=False))
    assert zero.params["omega1"] == pytest.approx(0.748, rel=0.02)
    assert zero.params["omega2"] == pytest.approx(1.535, rel=0.02)
    assert zero.p_max == pytest.approx(0.3766, abs=2e-3)
    assert free.p_max > zero.p_max


def test_freezing_delay_never_helps():
    for ratio in (0.3, 2.0):
        atom = Atom(ratio, 1.0)
        free = optimize_pulse(OptimizationProblem(atom, "gaussian_product",
                                                  mu_free=True, n_starts=4))
        zero = optimize_pulse(OptimizationProblem(atom, "gaussian_product",
                                                  mu_free=False, n_starts=4))
        assert free.p_max >= zero.p_max - 1e-6


def test_entangled_escapes_product_manifold():
    atom = Atom(5.0, 1.0)
    problem = OptimizationProblem(atom, "entangled_gaussian", mu_free=True)
    start = [{"omega_plus": 2.0, "omega_minus": 2.0, "mu": 0.2}]
    res = optimize_pulse(problem, starts=start)
    st = EntangledGaussian(res.params["omega_plus"],
                           res.params["omega_minus"],
                           res.params.get("mu", 0.0))
    assert schmidt_analytic(st).entropy_bits > 0.1


def test_symmetric_entangled_equals_symmetric_product():
    # freezing omega_plus = omega_minus reduces to the symmetric product
    atom = Atom(1.0, 1.0)

    def best_symmetric(family_builder):
        vals = []
        for w in np.linspace(0.6, 2.4, 31):
            st = family_builder(w)
            vals.append(absorption.pf_max_over_t(atom, st)[1])
        return max(vals)

    from tpaopt.states import GaussianProduct
    a = best_symmetric(lambda w: EntangledGaussian(w, w, 1.0))
    b = best_symmetric(lambda w: GaussianProduct(w, w, 1.0))
    assert a == pytest.approx(b, abs=1e-6)


def test_entangled_fast_intermediate_asymptotics():
    # virtual-state regime: widths approach the matched Lorentzian FWHMs,
    # the delay approaches one intermediate lifetime, and the temporal and
    # spectral variances lock to the final/intermediate scales
    res = optimize_pulse(OptimizationProblem(Atom(100.0, 1.0),
                                             "entangled_gaussian",
                                             mu_free=True))
    p = res.params
    st = EntangledGaussian(p["omega_plus"], p["omega_minus"], p["mu"])
    assert p["omega_plus"] == pytest.approx(1.0, abs=0.15)
    assert p["omega_minus"] / 201.0 == pytest.approx(1.0, abs=0.15)
    assert p["mu"] * 100.0 == pytest.approx(1.0, abs=0.1)
    assert 2.0 * st.sigma_t2 == pytest.approx(1.0, abs=0.1)
    assert 2.0 * st.sigma_w2 / 100.0**2 == pytest.approx(1.0, abs=0.1)
    # the Gaussian ceiling reappears in this regime
    assert res.p_max == pytest.approx(0.64, abs=0.02)


def test_coherent_width_ratio_in_fast_intermediate_limit():
    res = optimize_pulse(OptimizationProblem(Atom(100.0, 1.0), "coherent",
                                             mu_free=True, n_starts=3))
    ratio = res.params["omega2"] / res.params["omega1"]
    assert ratio == pytest.approx(1.3, abs=0.1)


def test_determinism_for_fixed_seed():
    atom = Atom(1.0, 1.0)
    p = OptimizationProblem(atom, "gaussian_product", n_starts=2, seed=7)
    r1 = optimize_pulse(p)
    r2 = optimize_pulse(p)
    assert r1.params == r2.params
    assert r1.p_max == r2.p_max


def test_result_serialization(tmp_path):
    atom = Atom(1.0, 1.0)
    res = optimize_pulse(OptimizationProblem(atom, "rising_exp", n_starts=2))
    path = tmp_path / "res.json"
    res.to_json(path)
    import json
    doc = json.loads(path.read_text())
    assert doc["p_max"] == pytest.approx(res.p_max)
    assert doc["converged"] is True


def test_converged_is_the_chosen_starts_flag(monkeypatch):
    # the best start stops unconverged at its evaluation budget; a worse
    # start converges: the result must carry the best start's flag
    import tpaopt.optimize as opt
    runs = iter([(np.array([0.0, 0.0]), -0.5, 200, False, 1e-3),
                 (np.array([0.1, 0.1]), -0.4, 150, True, 1e-6)])
    monkeypatch.setattr(opt, "nelder_mead", lambda *a, **k: next(runs))
    res = optimize_pulse(OptimizationProblem(Atom(1.0, 1.0), "rising_exp",
                                             n_starts=2))
    chosen = max(res.starts, key=lambda s: s["value"])
    assert chosen["converged"] is False
    assert res.converged is chosen["converged"]


def test_problem_round_trip():
    p = OptimizationProblem(Atom(2.0, 1.0, 0.1, -0.2), "entangled_gaussian",
                            mu_free=False, n_starts=3, seed=5)
    d = p.to_dict()
    assert d["atom"]["gamma_e"] == 2.0
    assert d["family"] == "entangled_gaussian"
    assert d["mu_free"] is False


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        OptimizationProblem(Atom(1.0, 1.0), "square_pulse")


def test_default_starts_cover_linewidth_scales():
    p = OptimizationProblem(Atom(4.0, 1.0), "gaussian_product")
    starts = default_starts(p)
    assert len(starts) == 8
    widths = sorted({s["omega1"] for s in starts})
    assert widths[0] == pytest.approx(2.0)      # gamma_e / 2
    assert widths[-1] == pytest.approx(10.0)    # 2 (gamma_e + gamma_f)


def test_asymptotic_checks_columns():
    rows = asymptotic_checks("gaussian_product", [0.5, 2.0], n_starts=3,
                             max_evals=900)
    assert len(rows) == 2
    for row in rows:
        assert {"ratio", "p_max", "omega1_over_ge", "omega2_over_gegf",
                "mu_ge", "converged"} <= set(row)
