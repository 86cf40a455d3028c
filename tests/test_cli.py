import json

import numpy as np
import pytest

import tpaopt.optimize as opt
from tpaopt.cli import (_preset_path, build_parser, load_config, main,
                        save_config)
from tpaopt.model import Atom
from tpaopt.optimize import FAMILIES as OPTIMIZABLE
from tpaopt.states import FAMILIES
from conftest import strip_timestamp


def test_config_round_trip_keyvalue(tmp_path):
    cfg = {"gamma_ratio": 2.5, "family": "entangled_gaussian", "seed": 3,
           "mu_free": False, "out": "results"}
    path = tmp_path / "run.cfg"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_config_round_trip_json(tmp_path):
    cfg = {"gamma_ratio": 0.01, "ratios": [0.1, 1.0], "tol": 1e-9}
    path = tmp_path / "run.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_config_accepts_spec_atom_keys(tmp_path):
    # the documented config vocabulary for the atom
    cfg_path = tmp_path / "atom.cfg"
    cfg_path.write_text("gamma_e_over_gamma_f=2.0\n"
                        "delta1_over_gamma_f=0.0\n"
                        "delta2_over_gamma_f=0.0\n")
    out = tmp_path / "o"
    rc = main(["reference", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "reference.json").read_text())
    assert doc["gamma_e_over_gamma_f"] == 2.0
    assert doc["tau2_minus_tau1"] == pytest.approx(0.5, rel=1e-9)


def test_flags_override_config(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    save_config({"gamma_ratio": 5.0, "t_star": 0.0}, str(cfg_path))
    out = tmp_path / "o"
    rc = main(["reference", "--config", str(cfg_path), "--gamma-ratio", "2.0",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "reference.json").read_text())
    assert doc["gamma_e_over_gamma_f"] == 2.0


def test_reference_outputs(tmp_path):
    out = tmp_path / "ref"
    assert main(["reference", "--gamma-ratio", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "reference.json").read_text())
    assert doc["residence_time_gamma_f"] == pytest.approx(2.0, abs=1e-3)
    assert doc["tau2_minus_tau1"] == pytest.approx(1.0, rel=1e-9)
    for name in ("pmax_bound.csv", "spectral_densities.csv",
                 "arrival_densities.csv"):
        assert (out / name).exists()


def test_curve_optimal_state(tmp_path):
    out = tmp_path / "curve"
    rc = main(["curve", "--family", "optimal", "--gamma-ratio", "1",
               "--t-star", "0", "--out", str(out)])
    assert rc == 0
    text = (out / "curve.csv").read_text()
    assert "p_max: 1" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows[0] == "t*gamma_f,P_f,profile1_sq,profile2_sq"


def test_curve_gaussian_headers_carry_hash(tmp_path):
    out = tmp_path / "curve2"
    main(["curve", "--family", "gaussian-product", "--omega1", "1.0",
          "--omega2", "1.5", "--mu", "0.5", "--gamma-ratio", "1",
          "--out", str(out)])
    head = (out / "curve.csv").read_text().splitlines()[:4]
    assert head[0].startswith("# tpaopt ")
    assert head[1].startswith("# config-hash: ")


def test_curve_rerun_byte_identical(tmp_path):
    args = ["curve", "--family", "entangled-gaussian", "--omega-plus", "1.0",
            "--omega-minus", "3.0", "--mu", "0.5", "--gamma-ratio", "2",
            "--n-times", "80"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    a = strip_timestamp((out1 / "curve.csv").read_text())
    b = strip_timestamp((out2 / "curve.csv").read_text())
    assert a == b


@pytest.mark.parametrize("argv, words", [
    (["curve", "--family", "chirped"], ["'chirped'", *FAMILIES]),
    (["curve", "--family", "gaussian-product", "--omega1", "1"],
     ["gaussian_product", "omega2"]),
    (["optimize", "--family", "optimal"], ["'optimal'", *OPTIMIZABLE]),
])
def test_family_input_errors_are_usage_errors(tmp_path, capsys, argv, words):
    # one line naming the family and what is missing, or the valid tags
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("tpaopt: error: ")
    assert all(w in err for w in words)


def test_coherent_command(tmp_path):
    out = tmp_path / "coh"
    rc = main(["coherent", "--gamma-ratio", "1", "--n1", "1", "--n2", "1",
               "--omega1", "1.0", "--omega2", "1.5", "--mu", "0.5",
               "--out", str(out), "--n-times", "101"])
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 102


def test_coherent_empty_drive_zero_column(tmp_path):
    out = tmp_path / "coh0"
    main(["coherent", "--gamma-ratio", "1", "--n1", "0", "--n2", "0",
          "--omega1", "1.0", "--omega2", "1.0", "--out", str(out),
          "--n-times", "51"])
    rows = [l.split(",") for l in
            (out / "trajectory.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    rho_ff = np.array([float(r[3]) for r in rows])
    assert np.all(rho_ff == 0.0)


def test_optimize_command_deterministic_rerun(tmp_path):
    args = ["optimize", "--family", "rising-exp", "--gamma-ratio", "1",
            "--n-starts", "2", "--seed", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    d1 = json.loads((out1 / "optimize.json").read_text())
    d2 = json.loads((out2 / "optimize.json").read_text())
    d1["headers"] = d2["headers"] = None  # timestamp line differs
    assert d1 == d2


def test_optimize_command_coherent_result_fields(tmp_path):
    # stationarity is the max-norm of the projected gradient at the optimum
    # (in log widths and the delay); converged means L-BFGS-B succeeded off
    # every inner face of its trust box
    main(["optimize", "--family", "coherent", "--gamma-ratio", "1", "--out", str(tmp_path)])
    res = json.loads((tmp_path / "optimize.json").read_text())["result"]
    assert res["converged"] is True
    problem = opt.OptimizationProblem(Atom(1.0, 1.0), "coherent")
    x = opt._encode(problem, res["params"])
    lo, hi = opt._encoded_box(problem)
    grad = opt._objective(problem)(x)[2]
    projected = np.max(np.abs(np.clip(x - grad, lo, hi) - x))
    assert res["stationarity"] == pytest.approx(projected, rel=1e-6)
    assert res["stationarity"] < 1e-6
    assert res["p_max"] == pytest.approx(0.214076936739, abs=1e-9)
    assert [s["converged"] for s in res["starts"]] == [True, True]


def test_optimize_command_writes_actual_search_box(tmp_path):
    # delays are bounded by 50 slowest lifetimes: 50/gamma_e = 5000/gamma_f here
    main(["optimize", "--family", "rising-exp", "--gamma-ratio", "0.01",
          "--n-starts", "1", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "optimize.json").read_text())
    assert doc["search_bounds"]["widths_gamma_f"] == pytest.approx([1e-3, 1e3])
    assert doc["search_bounds"]["delays_gamma_f"] == pytest.approx([-5000.0, 5000.0])


def test_sweep_family_csv_deterministic_across_jobs(tmp_path):
    base = ["sweep", "--family", "rising_exp", "--ratios", "0.5,2.0",
            "--seed", "0"]
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    main(base + ["--jobs", "1", "--out", str(out1)])
    main(base + ["--jobs", "2", "--out", str(out2)])
    a = strip_timestamp((out1 / "ratio_sweep.csv").read_text())
    b = strip_timestamp((out2 / "ratio_sweep.csv").read_text())
    assert a == b


def test_sensitivity_preset_csv_deterministic_across_jobs(tmp_path, monkeypatch):
    # one fig8 job on a 2 x 2 grid: the delay climb of every cell must not
    # depend on the worker count
    import tpaopt.cli as cli
    spec = json.loads(_preset_path("fig8").read_text())
    spec["jobs"] = spec["jobs"][:1]
    trimmed = tmp_path / "fig8.json"
    trimmed.write_text(json.dumps(spec))
    monkeypatch.setattr(cli, "_preset_path", lambda name: trimmed)
    texts = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert main(["sweep", "--preset", "fig8", "--grid", "2",
                     "--jobs", jobs, "--out", str(out)]) == 0
        texts.append(strip_timestamp((out / spec["jobs"][0]["output"]).read_text()))
    assert texts[0] == texts[1]
    assert len([l for l in texts[0].splitlines() if not l.startswith("#")]) == 5


def test_all_presets_load_and_are_documented():
    kinds = {"ratio_sweep", "comparison_sweep", "params_sweep",
             "exponential_sweep", "optimized_curve", "sensitivity",
             "detuning", "biphoton_density"}
    outputs = set()
    for i in range(1, 13):
        doc = json.loads(_preset_path(f"fig{i}").read_text())
        assert doc["description"]
        assert doc["jobs"]
        for job in doc["jobs"]:
            assert job["kind"] in kinds
            assert job["output"] not in outputs
            outputs.add(job["output"])


def test_preset_execution_smoke(tmp_path, monkeypatch):
    # run the real preset machinery on a trimmed copy of fig5
    import tpaopt.cli as cli
    spec = json.loads(_preset_path("fig5").read_text())
    spec["jobs"][0]["ratios"] = [1.0]
    trimmed = tmp_path / "fig5.json"
    trimmed.write_text(json.dumps(spec))
    monkeypatch.setattr(cli, "_preset_path", lambda name: trimmed)
    out = tmp_path / "out"
    rc = main(["sweep", "--preset", "fig5", "--out", str(out)])
    assert rc == 0
    lines = (out / "fig5_entangled_vs_product.csv").read_text().splitlines()
    headerline = [l for l in lines if not l.startswith("#")][0]
    assert headerline.split(",")[:3] == ["ratio", "entangled_mu_free",
                                         "product_mu_free"]
    row = [float(x) for x in lines[-1].split(",")]
    # the entangled family contains every symmetric product, so it can
    # only improve on the product optimum
    assert row[1] >= row[2] - 1e-6
    assert 0.3 < row[2] < row[1] < 0.8


def test_parser_exposes_spec_flags():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("curve", "optimize", "sweep", "reference", "coherent"):
        assert sub in text
