import json
from pathlib import Path

import numpy as np
import pytest

import tpaopt.optimize as opt
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
    assert doc["skipped_starts"] == []  # with two starts both always run


def test_converged_is_the_chosen_starts_flag(monkeypatch):
    # the best start stops unconverged at its evaluation budget; a worse
    # start converges: the result must carry the best start's flag
    runs = iter([(np.array([0.0, 0.0]), -0.5, 200, False, 1e-3),
                 (np.array([0.1, 0.1]), -0.4, 150, True, 1e-6)])
    monkeypatch.setattr(opt, "lbfgs_trust", lambda *a, **k: next(runs))
    res = optimize_pulse(OptimizationProblem(Atom(1.0, 1.0), "rising_exp",
                                             n_starts=2))
    chosen = max(res.starts, key=lambda s: s["value"])
    assert chosen["converged"] is False
    assert res.converged is chosen["converged"]


def test_multistart_stops_once_two_starts_agree(monkeypatch):
    # the third start agrees with the second within the 1e-9 tie: the
    # remaining five are skipped, and the tie goes to the smaller vector
    problem = OptimizationProblem(Atom(1.0, 1.0), "gaussian_product")
    script = [(np.array([0.0, 0.0, 1.0]), -0.30, 40, True, 1e-10),
              (np.array([0.2, 0.5, 1.0]), -0.50, 40, True, 1e-10),
              (np.array([0.1, 0.5, 1.0]), -0.50 + 5e-10, 40, True, 1e-10),
              (np.array([0.0, 0.5, 1.0]), -0.60, 40, True, 1e-10)]

    def run():
        runs = iter(script)
        monkeypatch.setattr(opt, "lbfgs_trust", lambda *a, **k: next(runs))
        return optimize_pulse(problem)

    first, second = run(), run()
    assert [s["value"] for s in first.starts] == [0.30, 0.50, 0.50 - 5e-10]
    assert first.skipped_starts == default_starts(problem)[3:]
    assert first.params["omega1"] == pytest.approx(np.exp(0.1))
    assert first.n_evaluations == 120
    assert first.to_dict() == second.to_dict()


@pytest.mark.parametrize("family, atom, params", [
    ("gaussian_product", Atom(1.0, 1.0), {"omega1": 0.8, "omega2": 1.5, "mu": 0.5}),
    ("entangled_gaussian", Atom(2.0, 1.0),
     {"omega_plus": 1.0, "omega_minus": 4.0, "mu": 0.3}),
    ("rising_exp", Atom(1.0, 1.0), {"omega1": 0.7, "omega2": 1.2}),
    ("decaying_exp", Atom(1.0, 1.0), {"omega1": 0.9, "omega2": 1.3, "t_shift": 0.8}),
])
def test_envelope_gradient_matches_remaximized_difference(family, atom, params):
    # the fixed-time derivative at t* equals the derivative of the maximum
    problem = OptimizationProblem(atom, family)
    x = opt._encode(problem, params)
    neg_grad = opt._objective(problem)(x)[2]
    h = 1e-4
    reference = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        p_up, p_down = (absorption.pf_max_over_t(
            atom, opt.build_state(problem, opt._decode(problem, v)))[1]
            for v in (up, down))
        reference.append((p_up - p_down) / (2.0 * h))
    assert -neg_grad == pytest.approx(np.array(reference), rel=1e-5)


@pytest.mark.parametrize("atom, params", [
    (Atom(1.0, 1.0), {"omega1": 1.2, "omega2": 2.0, "mu": 0.4}),
    (Atom(0.5, 1.0, 0.8, -0.6), {"omega1": 0.9, "omega2": 1.6, "mu": 1.0}),
])
@pytest.mark.parametrize("mu_free", [True, False])
def test_coherent_gradient_matches_central_differences(atom, params, mu_free):
    # the stepper's sensitivities at t*, chain-ruled to log widths, against
    # central differences of the re-maximized tight-tolerance maximum
    problem = OptimizationProblem(atom, "coherent", mu_free=mu_free, coherent_rtol=1e-11)
    x = opt._encode(problem, params)
    neg_grad = opt._objective(problem)(x)[2]
    h = 1e-4
    reference = []
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        p_up, p_down = (opt.max_over_time(
            problem, opt.build_state(problem, opt._decode(problem, v)))[1]
            for v in (up, down))
        reference.append((p_up - p_down) / (2.0 * h))
    assert -neg_grad == pytest.approx(np.array(reference), rel=1e-5)


def test_trust_box_confines_every_state(monkeypatch):
    # one unconfined quasi-Newton step from this start once jumped to
    # omega2 = 1e-3, a state that needs about 300k panels
    problem = OptimizationProblem(Atom(100.0, 1.0), "gaussian_product", mu_free=False)
    boxes, outside = [], []
    real_minimize, real_build = opt.minimize, opt.build_state
    fd_step = 1e-5 * (1.0 + 1e-9)  # a difference quotient may step past a face

    def minimize(fun, x0, bounds, **kw):
        lo, hi = np.array(bounds).T
        assert np.all(x0 - lo <= 2.0 + 1e-12) and np.all(hi - x0 <= 2.0 + 1e-12)
        boxes.append((lo, hi))
        return real_minimize(fun, x0, bounds=bounds, **kw)

    def build_state(prob, params):
        x = np.log([params["omega1"], params["omega2"]])
        if not boxes or np.any(x < boxes[-1][0] - fd_step) or np.any(x > boxes[-1][1] + fd_step):
            outside.append(params)
        return real_build(prob, params)

    monkeypatch.setattr(opt, "minimize", minimize)
    monkeypatch.setattr(opt, "build_state", build_state)
    res = optimize_pulse(problem, starts=[{"omega1": 202.0, "omega2": 203.0}])
    assert len(boxes) >= 2  # the optimum lies beyond the first box: re-centred
    assert outside == []
    assert res.p_max == pytest.approx(0.0323552531949, abs=1e-9)
    assert res.converged


def _nelder_mead_multistart(problem, n_starts=2):
    # the simplex reference: -p_max inside the search box, a penalty outside
    lo, hi = opt._encoded_box(problem)

    def f(x):
        penalty = float(np.sum(np.abs(x - np.clip(x, lo, hi))))
        if penalty > 0:
            return 2.0 + penalty
        state = opt.build_state(problem, opt._decode(problem, x))
        return -opt.max_over_time(problem, state)[1]

    steps = [0.3 if opt._is_width(n) else s
             for n, s in zip(opt._param_names(problem), opt._scales(problem))]
    return max(-nelder_mead(f, opt._encode(problem, p), steps)[1]
               for p in default_starts(problem)[:n_starts])


@pytest.mark.parametrize("family, atom, mu_free", [
    ("gaussian_product", Atom(100.0, 1.0), False),
    ("entangled_gaussian", Atom(5.0, 1.0, 1.0, 0.0), True),
    ("rising_exp", Atom(1.0, 1.0), True),
    ("decaying_exp", Atom(3.0, 1.0), False),
    ("coherent", Atom(1.0, 1.0), True),
])
def test_gradient_optimizer_reaches_nelder_mead(family, atom, mu_free):
    problem = OptimizationProblem(atom, family, mu_free=mu_free)
    res = optimize_pulse(problem)
    assert res.p_max >= _nelder_mead_multistart(problem) * (1.0 - 1e-9)
    assert res.converged and res.stationarity < 1e-6


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


def test_empty_starts_rejected():
    with pytest.raises(ValueError):
        optimize_pulse(OptimizationProblem(Atom(1.0, 1.0), "rising_exp"), starts=[])


def test_default_starts_cover_linewidth_scales():
    p = OptimizationProblem(Atom(4.0, 1.0), "gaussian_product")
    starts = default_starts(p)
    assert len(starts) == 8
    widths = sorted({s["omega1"] for s in starts})
    assert widths[0] == pytest.approx(2.0)      # gamma_e / 2
    assert widths[-1] == pytest.approx(10.0)    # 2 (gamma_e + gamma_f)


_PINS = json.loads((Path(__file__).parent / "family_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(_PINS))
def test_parameter_names_and_starts_are_pinned(key):
    # literal values recorded before the family table: parameter names,
    # seeds and the encode/decode round trip, with their key order
    family, ratio, policy = key.split()
    problem = OptimizationProblem(Atom(float(ratio), 1.0), family,
                                  mu_free=policy == "mu_free")
    pin = _PINS[key]
    starts = default_starts(problem)
    assert opt._param_names(problem) == tuple(pin["names"])
    assert [list(map(list, s.items())) for s in starts] == pin["starts"]
    assert [list(map(list, opt._decode(problem, opt._encode(problem, s)).items()))
            for s in starts] == pin["decoded"]


def test_asymptotic_checks_columns():
    rows = asymptotic_checks("gaussian_product", [0.5, 2.0], n_starts=3,
                             max_evals=900)
    assert len(rows) == 2
    for row in rows:
        assert {"ratio", "p_max", "omega1_over_ge", "omega2_over_gegf",
                "mu_ge", "converged"} <= set(row)
