"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Three clauses are knowingly red; each failure message carries the analysis
(see also the project README): the source figure's caption swapped its two
width lists (criterion 3), the universal residence-time ceiling claim is
false for long drives (criterion 9, second clause), and the printed optimal
shift formula has its pulse subscripts swapped (criterion 7, second clause).
Swap-corrected diagnostics are asserted alongside so the physics itself is
still pinned.
"""

import math

import numpy as np
import pytest

from tpaopt import absorption as ab
from tpaopt import coherent, optimal
from tpaopt.model import Atom
from tpaopt.optimize import OptimizationProblem, optimize_pulse
from tpaopt.states import (DecayingExpProduct, EntangledGaussian,
                           GaussianProduct, OptimalState, RisingExpProduct,
                           schmidt_analytic, schmidt_numeric)
from tpaopt.sweeps import detuning_map
from conftest import pf_quadrature, random_state, strip_timestamp


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def test_criterion_01_perfect_excitation():
    worst = 0.0
    for ratio in (0.2, 1.0, 5.0):
        atom = Atom(ratio, 1.0)
        p = ab.pf_at(atom, OptimalState(atom, 0.0), 0.0, method="quadrature")
        worst = max(worst, abs(p - 1.0))
    ok = worst < 1e-3
    assert verdict(1, ok, f"pf(optimal, t*) = 1 +- 1e-3 via quadrature "
                          f"(worst dev {worst:.2e})")


def test_criterion_02_bound_saturation():
    rng = np.random.default_rng(2)
    worst = 0.0
    draws = []
    for k in range(18):
        ge = 10 ** rng.uniform(-0.8, 0.8)
        draws.append((ge, rng.uniform(0.3, 9.0)))
    draws += [(1.0, 2.0), (1.0, 0.7)]  # equal-rate branch
    for ge, h in draws:
        atom = Atom(ge, 1.0)
        st = OptimalState(atom, 0.0, -h)
        _, pm = ab.pf_max_over_t(atom, st)
        worst = max(worst, abs(pm - optimal.pmax_bound(atom, h)))
    ok = worst < 1e-4
    assert verdict(2, ok, f"truncated matched state saturates the bound on "
                          f"20 draws (worst dev {worst:.2e})")


def test_criterion_03_fig2_parameters_as_printed():
    atom = Atom(1.0, 1.0)
    free = optimize_pulse(OptimizationProblem(atom, "gaussian_product",
                                              mu_free=True))
    zero = optimize_pulse(OptimizationProblem(atom, "gaussian_product",
                                              mu_free=False))
    p, q = free.params, zero.params

    # swap-corrected diagnostic: each caption list matches the *other*
    # delay policy's optimum to print precision
    swap_ok = (abs(q["omega1"] / 0.75 - 1) < 0.05
               and abs(q["omega2"] / 1.53 - 1) < 0.05
               and abs(p["omega1"] / 1.11 - 1) < 0.05
               and abs(p["omega2"] / 1.95 - 1) < 0.05
               and abs(p["mu"] / 1.19 - 1) < 0.05)
    print(f"ACCEPTANCE  3d: {'PASS' if swap_ok else 'FAIL'} - swap-corrected "
          f"diagnostic: mu-free {tuple(round(v, 3) for v in (p['omega1'], p['omega2'], p['mu']))}"
          f" vs caption-(b)+mu; mu-zero {tuple(round(v, 3) for v in (q['omega1'], q['omega2']))}"
          f" vs caption-(a)")
    assert swap_ok

    literal_ok = (abs(p["omega1"] / 0.75 - 1) < 0.05
                  and abs(p["omega2"] / 1.53 - 1) < 0.05
                  and abs(p["mu"] / 1.19 - 1) < 0.05
                  and abs(q["omega1"] / 1.11 - 1) < 0.05
                  and abs(q["omega2"] / 1.95 - 1) < 0.05)
    verdict(3, literal_ok,
            "Fig. 2 caption lists as printed: mu-free = (0.75, 1.53, 1.19), "
            "mu-zero = (1.11, 1.95). The caption's width lists are swapped "
            "between panels; see decisions ledger / README.")
    assert literal_ok, (
        "Criterion 3 is unattainable as stated: (0.75, 1.53, mu=1.19) is not "
        "a critical point of the objective (P = 0.5206 there vs 0.5555 at "
        "(1.115, 1.956, 1.191)); the mu-zero optimum is (0.748, 1.535). "
        "Four independent asymptotic anchors and both entangled optima "
        "confirm the machinery; the caption swapped its two width lists.")


def test_criterion_04_fig6_entangled_optima():
    res_half = optimize_pulse(OptimizationProblem(Atom(0.5, 1.0),
                                                  "entangled_gaussian",
                                                  mu_free=True))
    res_five = optimize_pulse(OptimizationProblem(Atom(5.0, 1.0),
                                                  "entangled_gaussian",
                                                  mu_free=True))
    a, b = res_half.params, res_five.params
    devs = [a["omega_plus"] / 0.79 - 1, a["omega_minus"] / 1.38 - 1,
            a["mu"] / 1.62 - 1, b["omega_plus"] / 1.03 - 1,
            b["omega_minus"] / 10.82 - 1, b["mu"] / 0.19 - 1]
    worst = max(abs(d) for d in devs)
    ok = worst < 0.05
    assert verdict(4, ok, f"entangled optima (0.79,1.38,1.62)@0.5 and "
                          f"(1.03,10.82,0.19)@5 within 5% (worst {worst:.1%})")


def test_criterion_05_gaussian_limits():
    res = optimize_pulse(OptimizationProblem(Atom(0.01, 1.0),
                                             "gaussian_product", mu_free=True))
    p = res.params
    checks = {
        "p_max 0.64+-0.02": abs(res.p_max - 0.64) < 0.02,
        "omega1/ge 1.46+-0.05": abs(p["omega1"] / 0.01 - 1.46) < 0.05,
        "omega2/(ge+gf) 1.46+-0.05": abs(p["omega2"] / 1.01 - 1.46) < 0.05,
        "mu*ge 1.0+-0.1 @0.01": abs(p["mu"] * 0.01 - 1.0) < 0.1,
    }
    res100 = optimize_pulse(OptimizationProblem(Atom(100.0, 1.0),
                                                "gaussian_product",
                                                mu_free=True))
    checks["mu*ge 2.0+-0.2 @100"] = abs(res100.params["mu"] * 100.0 - 2.0) < 0.2
    ok = all(checks.values())
    assert verdict(5, ok, "slow/fast-intermediate Gaussian limits: "
                          + ", ".join(k for k, v in checks.items() if not v)
                          if not ok else
                          "slow/fast-intermediate Gaussian limits all hit")


def test_criterion_06_rising_exponential():
    worst = 0.0
    for ratio in (0.1, 1.0, 10.0):
        atom = Atom(ratio, 1.0)
        res = optimize_pulse(OptimizationProblem(atom, "rising_exp",
                                                 n_starts=4))
        om1, om2, pm = ab.pf_max_rising(atom)
        worst = max(worst,
                    abs(res.params["omega1"] / om1 - 1),
                    abs(res.params["omega2"] / om2 - 1),
                    abs(res.p_max - pm))
    small_ratio_ok = ab.pf_max_rising(Atom(1e-3, 1.0))[2] > 0.99
    equal_rate = abs(ab.pf_max_rising(Atom(1.0, 1.0))[2] - 128.0 / 216.0)
    ok = worst < 1e-3 and small_ratio_ok and equal_rate < 1e-9
    assert verdict(6, ok, f"rising exponentials: optimizer vs closed form "
                          f"(worst {worst:.2e}), p>0.99 at 1e-3, equal-rate "
                          f"value dev {equal_rate:.1e}")


def test_criterion_07_decaying_exponential():
    atom = Atom(0.01, 1.0)
    res = optimize_pulse(OptimizationProblem(atom, "decaying_exp",
                                             mu_free=True))
    p = res.params
    p_ok = abs(res.p_max - 0.29) < 0.01
    ts = p["t_shift"]
    literal = 1.0 / p["omega2"] + 1.0 / atom.gamma_e - 1.0 / p["omega1"]
    swapped = 1.0 / p["omega1"] + 1.0 / atom.gamma_e - 1.0 / p["omega2"]
    swap_ok = abs(ts / swapped - 1.0) < 0.15
    print(f"ACCEPTANCE  7d: {'PASS' if (p_ok and swap_ok) else 'FAIL'} - "
          f"p_max = {res.p_max:.4f} (0.29 +- 0.01); subscript-corrected shift "
          f"estimate {swapped:.1f} vs converged {ts:.1f}")
    assert p_ok and swap_ok

    literal_ok = abs(ts / literal - 1.0) < 0.15
    verdict(7, p_ok and literal_ok,
            f"shift formula as printed: 1/om2+1/ge-1/om1 = {literal:.2f} vs "
            f"converged {ts:.1f}; the printed formula's pulse subscripts are "
            f"swapped (ledger)")
    assert literal_ok, (
        "Criterion 7's shift clause is unattainable as stated: at ratio 0.01 "
        "the printed estimate gives ~1/gamma_f where the best reachable "
        "probability is 0.012; the converged optimum t_s = 199/gamma_f "
        "matches the subscript-swapped formula to 1%.")


def test_criterion_08_coherent():
    atom = Atom(0.01, 1.0)
    res = optimize_pulse(OptimizationProblem(atom, "coherent", mu_free=True,
                                             n_starts=4, max_evals=1600))
    p = res.params
    checks = {
        "p_max 0.23+-0.01": abs(res.p_max - 0.23) < 0.01,
        "omega1/ge 2.4+-10%": abs(p["omega1"] / 0.01 / 2.4 - 1) < 0.10,
        "omega2/gf 2.4+-10%": abs(p["omega2"] / 2.4 - 1) < 0.10,
        "mu*ge 0.60+-10%": abs(p["mu"] * 0.01 / 0.60 - 1) < 0.10,
    }
    rng = np.random.default_rng(8)
    worst_trace, worst_eig = 0.0, 0.0
    for k in range(100):
        atom_k = Atom(10 ** rng.uniform(-1, 1), 1.0,
                      rng.uniform(-1, 1), rng.uniform(-1, 1))
        d = coherent.CoherentDrive(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0),
                                   10 ** rng.uniform(-0.3, 0.5),
                                   10 ** rng.uniform(-0.3, 0.5),
                                   rng.uniform(-1.0, 2.0))
        traj = coherent.evolve(atom_k, d)
        worst_trace = max(worst_trace, float(np.max(np.abs(traj.trace() - 1))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(traj.matrices()).min()))
    checks["trace 1e-8"] = worst_trace < 1e-8
    checks["positivity -1e-7"] = worst_eig > -1e-7
    ok = all(checks.values())
    assert verdict(8, ok, "coherent ratio-0.01 optimum + CPTP invariants on "
                          "100 drives"
                          + ("" if ok else ": failed "
                             + ", ".join(k for k, v in checks.items() if not v)))


def test_criterion_09_residence_time():
    atom = Atom(1.0, 1.0)
    tau_opt = ab.residence_time(atom, OptimalState(atom, 0.0))
    opt_ok = abs(tau_opt - 2.0) < 1e-3
    print(f"ACCEPTANCE  9a: {'PASS' if opt_ok else 'FAIL'} - matched-state "
          f"residence time {tau_opt:.6f} = 2/gamma_f +- 1e-3")
    assert opt_ok

    rng = np.random.default_rng(9)
    worst = 0.0
    worst_state = None
    # 48 generator draws plus two draws pinned to the slow-drive corner of
    # the same parameter ranges (a seed-robust sample of the claim's domain;
    # some seeds land there on their own, e.g. default_rng(20240817))
    draws = [(Atom(10 ** rng.uniform(-1, 1), 1.0), random_state(rng))
             for _ in range(48)]
    draws.append((Atom(1.05, 1.0), EntangledGaussian(0.34, 1.63, 0.67)))
    draws.append((Atom(1.0, 1.0), EntangledGaussian(0.32, 2.0, 1.0)))
    for atom_k, st in draws:
        tau = ab.residence_time(atom_k, st)
        if tau - 2.0 / atom_k.gamma_f > worst:
            worst = tau - 2.0 / atom_k.gamma_f
            worst_state = (atom_k, st)
    ok = worst < 1e-3
    verdict(9, opt_ok and ok,
            f"residence <= 2/gamma_f for 50 random states: largest excess "
            f"{worst:.4f}/gamma_f"
            + ("" if ok else f" at {worst_state}; the universal 2/gamma_f "
                             f"ceiling is false (supremum 4/gamma_f, ledger)"))
    assert ok, (
        "Criterion 9's universal ceiling is unattainable as stated: long "
        "quasi-stationary drives exceed 2/gamma_f (verified against the "
        "quadrature and Riemann oracles); the matched-filter Gram analysis "
        "gives supremum 4/gamma_f. The matched-family clause passes.")


def test_criterion_10_entropy():
    rng = np.random.default_rng(10)
    worst = 0.0
    for k in range(50):
        st = EntangledGaussian(10 ** rng.uniform(-0.5, 0.5),
                               10 ** rng.uniform(-0.5, 0.8),
                               rng.uniform(-1.0, 1.0))
        num = schmidt_numeric(st, n=400)
        ana = schmidt_analytic(st)
        worst = max(worst, abs(num.entropy_bits - ana.entropy_bits))
    product_s = schmidt_analytic(EntangledGaussian(1.3, 1.3, 0.4)).entropy_bits
    ratios = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
    ent = [optimal.optimal_entropy_bits(Atom(r, 1.0)) for r in ratios]
    monotone = all(b > a for a, b in zip(ent, ent[1:]))
    ok = worst < 1e-4 and product_s < 1e-6 and monotone
    assert verdict(10, ok, f"numeric-vs-closed-form entropy on 50 draws "
                           f"(worst {worst:.2e} bits), product entropy "
                           f"{product_s:.1e}, matched-state entropy monotone "
                           f"over ratios 0.01..100")


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(11)
    worst_ip = 0.0
    for k in range(50):
        atom = Atom(10 ** rng.uniform(-0.8, 0.8), 1.0)
        st = random_state(rng)
        lo, hi = ab.scan_bounds(atom, st)
        t = float(rng.uniform(lo + 0.3 * (hi - lo), hi))
        a = pf_quadrature(atom, st, t, 1e-10)
        b = ab.pf_inner_product(atom, st, t)
        worst_ip = max(worst_ip, abs(a - b))
    worst_cf = 0.0
    for k in range(100):
        atom = Atom(10 ** rng.uniform(-0.8, 0.8), 1.0,
                    rng.uniform(-1, 1), rng.uniform(-1, 1))
        om1 = 10 ** rng.uniform(-0.5, 0.5)
        om2 = 10 ** rng.uniform(-0.5, 0.5)
        if k % 2:
            st = RisingExpProduct(om1, om2)
            lo, hi = ab.scan_bounds(atom, st)
            t = float(rng.uniform(lo + 0.3 * (hi - lo), hi))
            closed = ab.pf_rising_closed_form(atom, om1, om2, t)
        else:
            ts = float(rng.uniform(-1.0, 2.0))
            st = DecayingExpProduct(om1, om2, ts)
            lo, hi = ab.scan_bounds(atom, st)
            t = float(rng.uniform(max(ts, 0.0) + 0.1, hi))
            closed = ab.pf_decaying_closed_form(atom, om1, om2, ts, t)
        quad = pf_quadrature(atom, st, t, 1e-11)
        worst_cf = max(worst_cf, abs(closed - quad))
    ok = worst_ip < 1e-8 and worst_cf < 1e-8
    assert verdict(11, ok, f"inner-product vs quadrature on 50 draws "
                           f"(worst {worst_ip:.1e}); closed forms vs "
                           f"quadrature on 100 draws (worst {worst_cf:.1e})")


def test_criterion_12_bounds_as_properties():
    rng = np.random.default_rng(12)
    ok_range, ok_relax = True, True
    for k in range(40):
        atom = Atom(10 ** rng.uniform(-1, 1), 1.0,
                    rng.uniform(-1, 1), rng.uniform(-1, 1))
        st = random_state(rng)
        lo, hi = ab.scan_bounds(atom, st)
        for t in rng.uniform(lo, hi, size=3):
            p = ab.pf_at(atom, st, float(t))
            ok_range &= (-1e-12 <= p <= 1.0 + 1e-9)
    for k in range(25):
        atom = Atom(10 ** rng.uniform(-1, 1), 1.0)
        st = random_state(rng, "decaying_exp")
        t0 = min(0.0, st.t_shift)
        lo, hi = ab.scan_bounds(atom, st)
        for t in rng.uniform(t0, hi, size=4):
            p = ab.pf_at(atom, st, float(t))
            ok_relax &= (p <= 1.0 - math.exp(-atom.gamma_f * (t - t0)) + 1e-9)
    ok = ok_range and ok_relax
    assert verdict(12, ok, "0 <= P <= 1 everywhere; relaxation bound "
                           "1 - e^{-gamma_f (t-t0)} on the decaying family")


def test_criterion_13_detuning_maps():
    grid = detuning_map("gaussian_product", 1.0, [-1.0, 0.0, 1.0],
                        [-1.0, 0.0, 1.0], n_starts=3)
    res = optimize_pulse(OptimizationProblem(Atom(1.0, 1.0),
                                             "gaussian_product"))
    resonant_ok = abs(grid.values[1, 1] - res.p_max) < 1e-6

    resonant = optimize_pulse(OptimizationProblem(Atom(5.0, 1.0),
                                                  "entangled_gaussian"))
    keep = []
    for d1 in (-2.0, -1.0, 1.0, 2.0):
        atom = Atom(5.0, 1.0, d1, -d1)
        r = optimize_pulse(OptimizationProblem(atom, "entangled_gaussian",
                                               n_starts=3),
                           starts=[resonant.params,
                                   {"omega_plus": 1.0, "omega_minus": 11.0,
                                    "mu": 0.2}])
        keep.append(r.p_max / resonant.p_max)
    anti_ok = min(keep) >= 0.90
    ok = resonant_ok and anti_ok
    assert verdict(13, ok, f"resonant cell matches direct optimum "
                           f"(+-1e-6: {resonant_ok}); entangled ratio-5 "
                           f"two-photon-resonant line retains "
                           f"{min(keep):.1%} >= 90%")


def test_criterion_14_determinism(tmp_path):
    from tpaopt.cli import main
    base = ["sweep", "--family", "rising_exp", "--ratios", "0.5,2.0",
            "--seed", "3"]
    outs = []
    for tag, jobs in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / tag
        main(base + ["--jobs", jobs, "--out", str(out)])
        outs.append(strip_timestamp((out / "ratio_sweep.csv").read_text()))
    ok = outs[0] == outs[1] == outs[2]
    assert verdict(14, ok, "byte-identical sweep outputs across reruns and "
                           "--jobs settings (timestamp line excluded)")
