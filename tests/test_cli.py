import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import tpaopt.absorption as absorption
import tpaopt.coherent as coherent
import tpaopt.cli as cli
import tpaopt.optimize as opt
import tpaopt.sweeps as sweeps
from tpaopt.cli import _preset_path, build_parser, load_config, main
from tpaopt.model import Atom
from tpaopt.optimize import FAMILIES as OPTIMIZABLE
from tpaopt.states import FAMILIES
from conftest import strip_timestamp


def save_config(cfg, path):
    """Write ``cfg`` in the form ``load_config`` reads: JSON for a .json
    path, else key=JSON-value lines."""
    if str(path).endswith(".json"):
        Path(path).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"{k}={json.dumps(v)}" for k, v in sorted(cfg.items())]
        Path(path).write_text("\n".join(lines) + "\n")


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


def test_main_runs_one_blas_thread_and_restores_the_callers(monkeypatch, tmp_path):
    pools = sweeps._blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS from the scipy or numpy wheels is loaded")

    def threads():
        return [get() for get, _ in pools]

    seen = []
    command, *rest = cli._COMMANDS["reference"]
    monkeypatch.setitem(cli._COMMANDS, "reference",
                        (lambda cfg: seen.append(threads()) or command(cfg), *rest))
    # the suite runs one thread (conftest); a caller's 2 tells restoring apart
    counts = threads()
    for _, set_threads in pools:
        set_threads(2)
    try:
        assert main(["reference", "--gamma-ratio", "1", "--out", str(tmp_path)]) == 0
        assert seen == [[1] * len(pools)]
        assert threads() == [2] * len(pools)
        # a usage error leaves by SystemExit, and restores them too
        with pytest.raises(SystemExit):
            main(["reference", "--gamma-ratio", "0", "--out", str(tmp_path)])
        assert len(seen) == 2 and threads() == [2] * len(pools)
    finally:
        for (_, set_threads), n in zip(pools, counts):
            set_threads(n)


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


def test_coherent_maximum_uses_the_trajectory_tolerance(tmp_path, capsys):
    # --tol 1e-12 integrates the trajectory at rtol 1e-11; the printed
    # maximum must come from the same tolerance, not from rtol 1e-8
    main(["coherent", "--gamma-ratio", "1", "--n1", "1", "--n2", "1",
          "--omega1", "1", "--omega2", "1.5", "--tol", "1e-12", "--n-times", "11",
          "--out", str(tmp_path)])
    tm, pm = coherent.pf_max_coherent(Atom(1.0, 1.0), coherent.CoherentDrive(1, 1, 1, 1.5),
                                      rtol=1e-11)
    assert capsys.readouterr().out.strip() == f"p_max = {pm:.9g} at t*gamma_f = {tm:.9g}"


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


# the keys besides "kind" and "output" that a job of each kind may set
_JOB_KEYS = {
    "ratio_sweep": {"family", "ratios", "entropy_output"},
    "comparison_sweep": {"ratios"},
    "params_sweep": {"family", "ratios"},
    "exponential_sweep": {"ratios"},
    "optimized_curve": {"family", "gamma_ratio", "mu_free"},
    "sensitivity": {"family", "gamma_ratio", "axis1", "axis2"},
    "detuning": {"family", "gamma_ratio", "range", "n", "n_fast", "n_starts"},
    "biphoton_density": {"family", "gamma_ratio"},
}


def test_all_presets_load_and_are_documented():
    outputs = set()
    for i in range(1, 13):
        doc = json.loads(_preset_path(f"fig{i}").read_text())
        assert doc["description"]
        assert doc["jobs"]
        for job in doc["jobs"]:
            assert job["kind"] in _JOB_KEYS
            assert set(job) - {"kind", "output"} <= _JOB_KEYS[job["kind"]], job
            assert job["output"] not in outputs
            outputs.add(job["output"])


def test_unknown_preset_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig13", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("tpaopt: error: ")
    assert "'fig13'" in err
    assert err.split("is not one of ")[1].split(", ") == [f"fig{i}" for i in range(1, 13)]


def test_sweep_has_no_delay_flags():
    # a ratio sweep always writes both delay policies
    for flag in ("--mu-free", "--mu-zero"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", flag])


def _trim_ratio_presets(tmp_path, monkeypatch, names, ratios):
    """Serve copies of the named presets whose jobs run on ``ratios`` only."""
    import tpaopt.cli as cli
    paths, specs = {}, {}
    for name in names:
        spec = json.loads(_preset_path(name).read_text())
        for job in spec["jobs"]:
            job["ratios"] = ratios
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
        specs[name] = spec
    monkeypatch.setattr(cli, "_preset_path", paths.__getitem__)
    return specs


def _table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_params_presets_columns(tmp_path, monkeypatch):
    # fig4 and fig10 on two ratios: one delay-free row per ratio, with the
    # parameters in linewidth units
    specs = _trim_ratio_presets(tmp_path, monkeypatch, ("fig4", "fig10"), [0.5, 2.0])
    expected = {
        "fig4": {"ratio", "p_max", "t_at_max", "converged", "omega1", "omega2",
                 "omega1_over_ge", "omega2_over_gegf", "mu_ge"},
        "fig10": {"ratio", "p_max", "t_at_max", "converged", "omega_plus",
                  "omega_minus", "omega_plus_over_gf", "omega_minus_over_gf2ge",
                  "mu_ge", "two_sigma_t2", "two_sigma_w2", "entropy_bits"},
    }
    for name, columns in expected.items():
        out = tmp_path / name
        assert main(["sweep", "--preset", name, "--out", str(out)]) == 0
        cols, rows = _table(out / specs[name]["jobs"][0]["output"])
        assert cols == sorted(columns)
        assert [float(r[cols.index("ratio")]) for r in rows] == [0.5, 2.0]
        assert all(r[cols.index("converged")] == "True" for r in rows)


def test_ratio_presets_deterministic_across_jobs(tmp_path, monkeypatch):
    # fig5 and fig11 read their optima from ratio sweeps over the workers
    specs = _trim_ratio_presets(tmp_path, monkeypatch, ("fig5", "fig11"), [0.5, 2.0])
    for name, spec in specs.items():
        texts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{name}_j{jobs}"
            assert main(["sweep", "--preset", name, "--jobs", jobs,
                         "--out", str(out)]) == 0
            texts.append(strip_timestamp((out / spec["jobs"][0]["output"]).read_text()))
        assert texts[0] == texts[1]
        assert len(_table(out / spec["jobs"][0]["output"])[1]) == 2


def test_preset_execution_smoke(tmp_path, monkeypatch):
    # run the real preset machinery on a trimmed copy of fig5
    _trim_ratio_presets(tmp_path, monkeypatch, ("fig5",), [1.0])
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


def _subparsers():
    """Subcommand name -> its parser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _recorded_config(path):
    """The ``config:`` header of an output file, as a dict."""
    if path.suffix == ".json":
        heads = json.loads(path.read_text())["headers"]
    else:
        heads = [l[2:] for l in path.read_text().splitlines() if l.startswith("# ")]
    return json.loads(next(h for h in heads if h.startswith("config: "))[8:])


# every flag of each subcommand but --config, --out and --jobs, set
_EVERY_FLAG = {
    "curve": (["curve", "--gamma-ratio", "1", "--delta1", "0.5", "--delta2", "0",
               "--family", "gaussian_product", "--omega1", "1", "--omega2", "1.5",
               "--omega-plus", "1", "--omega-minus", "2", "--mu", "0.5",
               "--t-shift", "0", "--t-star", "0", "--t0", "-1", "--n-times", "20"],
              "curve.csv"),
    "optimize": (["optimize", "--gamma-ratio", "1", "--delta1", "0", "--delta2", "0",
                  "--seed", "0", "--family", "rising_exp", "--n1", "1", "--n2", "1",
                  "--mu-free", "--n-starts", "1"], "optimize.json"),
    "sweep": (["sweep", "--seed", "0", "--preset", "fig1", "--family", "rising_exp",
               "--ratios", "1", "--grid", "2", "--fast"], "fig1_optimal_r5_time.csv"),
    "reference": (["reference", "--gamma-ratio", "1", "--delta1", "0", "--delta2", "0",
                   "--t-star", "0"], "reference.json"),
    "coherent": (["coherent", "--gamma-ratio", "1", "--delta1", "0", "--delta2", "0",
                  "--tol", "1e-9", "--n1", "1", "--n2", "1", "--omega1", "1",
                  "--omega2", "1.5", "--mu", "0.5", "--n-times", "21"],
                 "trajectory.csv"),
}


@pytest.mark.parametrize("name", sorted(_EVERY_FLAG))
def test_config_header_records_exactly_the_flags_read(tmp_path, name):
    argv, output = _EVERY_FLAG[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    keys = set(_recorded_config(tmp_path / output))
    if name == "sweep":  # a preset run adds the preset's own description
        keys.remove("preset_description")
    dests = {a.dest for a in _subparsers()[name]._actions}
    assert keys == dests - {"help", "config", "out", "jobs"}


def _serve_first_jobs(tmp_path, monkeypatch, jobs):
    """Serve copies of the presets named in ``jobs`` that hold their first
    job alone, its keys updated from ``jobs[name]``."""
    import tpaopt.cli as cli
    paths = {}
    for name, keys in jobs.items():
        spec = json.loads(_preset_path(name).read_text())
        spec["jobs"] = [{**spec["jobs"][0], **keys}]
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    monkeypatch.setattr(cli, "_preset_path", paths.__getitem__)


@pytest.mark.parametrize("argv, output, recorded", [
    (["sweep", "--family", "rising_exp", "--ratios", "1"], "ratio_sweep",
     {"family": "rising_exp", "ratios": "1"}),
    (["sweep", "--preset", "fig3"], "fig3_gaussian_ratio_sweep", {"preset": "fig3"}),
    (["sweep", "--preset", "fig12", "--grid", "3"], "fig12_detuning_product_r0.5",
     {"preset": "fig12", "grid": 3}),
])
def test_grid_json_carries_the_table_headers(tmp_path, monkeypatch, argv, output, recorded):
    # a grid's JSON holds the '#' headers of its table at the top level
    _serve_first_jobs(tmp_path, monkeypatch, {"fig3": {"ratios": [1.0]}, "fig12": {}})
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    table = out / f"{output}.csv"
    config = _recorded_config(table)
    assert recorded.items() <= config.items()
    heads = [l[2:] for l in table.read_text().splitlines() if l.startswith("# ")]
    doc = out / f"{output}.json"
    if "fig3" in argv:  # a preset's ratio sweep writes its table alone
        assert not doc.exists()
    else:
        assert json.loads(doc.read_text())["headers"] == heads
        assert _recorded_config(doc) == config


def test_config_file_keys_a_command_does_not_read_are_dropped(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    save_config({"gamma_ratio": 2.0, "omega1": 5.0, "tol": 3.0}, str(cfg_path))
    out = tmp_path / "o"
    assert main(["reference", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert _recorded_config(out / "reference.json") == {
        "delta1": 0.0, "delta2": 0.0, "gamma_ratio": 2.0, "t_star": 0.0}


@pytest.mark.parametrize("argv", [
    ["sweep", "--delta1", "1.5"], ["sweep", "--tol", "1e-3"],
    ["curve", "--seed", "1"], ["optimize", "--omega1", "5"],
    ["reference", "--jobs", "2"], ["coherent", "--family", "coherent"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, field", [
    (["curve", "--family", "gaussian_product", "--omega1", "-1", "--omega2", "1"],
     "omega1=-1.0"),
    (["reference", "--gamma-ratio", "0"], "gamma_e=0.0"),
    (["coherent", "--n1", "-1"], "n1=-1.0"),
    (["optimize", "--family", "coherent", "--n1", "-1"], "n1=-1.0"),
    (["optimize", "--n-starts", "0"], "n_starts=0"),
    (["coherent", "--n-times", "0"], "n_times=0"),
    (["curve", "--family", "optimal", "--n-times", "0"], "n_times=0"),
    (["curve", "--family", "optimal", "--n-times", "1"], "n_times=1"),
    (["sweep", "--ratios", "abc"], "'abc'"),
    (["sweep", "--family", "rising_exp", "--ratios", "1,0"], "gamma_e=0.0"),
])
def test_rejected_values_are_usage_errors(tmp_path, capsys, argv, field):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("tpaopt: error: ") and field in err[-1]
    assert not any("Traceback" in l for l in err)


def test_internal_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # only the inputs' own checks turn into usage errors
    def broken(*args, **kwargs):
        raise ValueError("internal")
    monkeypatch.setattr(absorption, "excitation_curve", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["curve", "--family", "optimal", "--out", str(tmp_path)])


def test_readme_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```bash\n(.*?)```", readme, re.S).group(1)
    lines = [l.split("#")[0] for l in block.splitlines() if l.startswith("tpaopt")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| `(--[^`]*)` \|$", readme, re.M))
    subparsers = _subparsers()
    assert set(rows) == set(subparsers)
    for name, flags in rows.items():
        options = {o for a in subparsers[name]._actions for o in a.option_strings}
        assert set(flags.replace("/", " ").split()) == options - {"-h", "--help", "--config"}


def test_only_cli_writes_files():
    # the numerical modules return data; cli alone decides every file's format
    src = Path(__file__).parents[1] / "src" / "tpaopt"
    writers = {p.name for p in src.glob("*.py")
               if any(w in p.read_text() for w in
                      ("open(", ".write_text(", "json.dump", "import json"))}
    assert writers == {"cli.py"}
