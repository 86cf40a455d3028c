import json

import numpy as np
import pytest

from tpaopt.model import Atom
from tpaopt.optimize import OptimizationProblem, optimize_pulse
from tpaopt.sweeps import detuning_map, ratio_sweep, sensitivity_map


def test_ratio_sweep_basic():
    grid = ratio_sweep("rising_exp", [0.5, 2.0], delay_policies=("mu_free",),
                       n_starts=3)
    assert grid.values.shape == (2, 1)
    assert np.all((grid.values >= 0) & (grid.values <= 1))
    assert grid.cells[0]["converged"]


def test_ratio_sweep_entangled_has_entropy():
    grid = ratio_sweep("entangled_gaussian", [1.0, 4.0],
                       delay_policies=("mu_free",), n_starts=3)
    assert all("entropy_bits" in c for c in grid.cells)
    # entanglement of the optimum grows with the ratio
    assert grid.cells[1]["entropy_bits"] > grid.cells[0]["entropy_bits"] - 1e-6


def test_sensitivity_global_optimum_cell():
    atom = Atom(1.0, 1.0)
    base = optimize_pulse(OptimizationProblem(atom, "gaussian_product",
                                              mu_free=True))
    w1 = [base.params["omega1"] * 0.8, base.params["omega1"]]
    w2 = [base.params["omega2"], base.params["omega2"] * 1.2]
    grid = sensitivity_map(atom, "gaussian_product", w1, w2,
                           delay_policy="reoptimize")
    assert grid.values[1, 0] == pytest.approx(base.p_max, abs=1e-6)
    assert np.all(grid.values <= base.p_max + 1e-9)


def test_sensitivity_frozen_policy_never_beats_reoptimized():
    atom = Atom(0.5, 1.0)
    w1 = [0.6, 1.0]
    w2 = [1.0, 1.6]
    re = sensitivity_map(atom, "gaussian_product", w1, w2, "reoptimize")
    fr = sensitivity_map(atom, "gaussian_product", w1, w2, "frozen")
    assert np.all(re.values >= fr.values - 1e-6)


def test_detuning_resonant_cell_matches_direct_optimum():
    grid = detuning_map("gaussian_product", 1.0, [-1.0, 0.0, 1.0],
                        [-1.0, 0.0, 1.0], n_starts=3)
    res = optimize_pulse(OptimizationProblem(Atom(1.0, 1.0),
                                             "gaussian_product"))
    assert grid.values[1, 1] == pytest.approx(res.p_max, abs=1e-6)
    assert grid.values[1, 1] >= np.max(grid.values) - 1e-9


def test_entanglement_improvement_nonnegative_at_ratio_two():
    ent = optimize_pulse(OptimizationProblem(Atom(2.0, 1.0),
                                             "entangled_gaussian", n_starts=4))
    prod = optimize_pulse(OptimizationProblem(Atom(2.0, 1.0),
                                              "gaussian_product", n_starts=4))
    assert ent.p_max >= prod.p_max - 1e-6


def test_sensitivity_more_symmetric_at_larger_ratio():
    # symmetry defect of the width map under omega1 <-> omega2
    def defect(ratio, scale):
        axis = np.linspace(0.6, 3.0, 4) * scale
        g = sensitivity_map(Atom(ratio, 1.0), "gaussian_product", axis, axis)
        v = g.values
        return float(np.mean(np.abs(v - v.T)) / np.mean(v))

    assert defect(5.0, 2.0) < defect(0.5, 1.0)


def test_sensitivity_flatter_along_omega2_near_optimum():
    atom = Atom(0.5, 1.0)
    base = optimize_pulse(OptimizationProblem(atom, "gaussian_product"))
    w1, w2 = base.params["omega1"], base.params["omega2"]
    grid = sensitivity_map(atom, "gaussian_product",
                           [w1 / 1.4, w1, w1 * 1.4],
                           [w2 / 1.4, w2, w2 * 1.4])
    v = grid.values
    drop_along_w1 = v[1, 1] - 0.5 * (v[0, 1] + v[2, 1])
    drop_along_w2 = v[1, 1] - 0.5 * (v[1, 0] + v[1, 2])
    assert drop_along_w2 < drop_along_w1


def test_detuned_lower_transition_halves_probability():
    resonant = optimize_pulse(OptimizationProblem(Atom(0.5, 1.0),
                                                  "gaussian_product"))
    det = optimize_pulse(OptimizationProblem(Atom(0.5, 1.0, 2.0, 0.0),
                                             "gaussian_product"))
    assert det.p_max < 0.5 * resonant.p_max


def test_grid_deterministic_across_workers():
    args = dict(delay_policies=("mu_free",), n_starts=2)
    a = ratio_sweep("rising_exp", [0.5, 1.0, 2.0], jobs=1, **args)
    b = ratio_sweep("rising_exp", [0.5, 1.0, 2.0], jobs=2, **args)
    assert np.array_equal(a.values, b.values)
    assert a.cells == b.cells


def test_grid_exports(tmp_path):
    grid = ratio_sweep("rising_exp", [0.5, 2.0], delay_policies=("mu_free",),
                       n_starts=2)
    csv_path = tmp_path / "g.csv"
    json_path = tmp_path / "g.json"
    grid.to_csv(csv_path, extra_comments=("meta",))
    grid.to_json(json_path, extra_meta={"note": "x"})
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# meta"
    assert lines[1] == "gamma_e_over_gamma_f,delay_policy,value,converged"
    assert len(lines) == 4
    doc = json.loads(json_path.read_text())
    assert doc["meta"]["note"] == "x"
    assert np.asarray(doc["values"]).shape == (2, 1)


def test_sensitivity_reoptimizes_the_decaying_shift():
    # the decaying family's delay is t_shift; the map re-optimizes it too
    atom = Atom(1.0, 1.0)
    base = optimize_pulse(OptimizationProblem(atom, "decaying_exp"))
    grid = sensitivity_map(atom, "decaying_exp", [base.params["omega1"]],
                           [base.params["omega2"]])
    assert grid.axes[0][0] == "omega1" and grid.axes[1][0] == "omega2"
    assert grid.values[0, 0] == pytest.approx(base.p_max, abs=1e-6)
    assert grid.cells[0]["mu"] == pytest.approx(base.params["t_shift"], rel=1e-2)
