"""Command-line front end: single evaluations, optimizations, sweeps, dumps.

This module writes every output file; the numerical modules only return
data. Tables go through `_write_table`, JSON documents through
`_write_json`, and grids through `_write_grid`, built on those two. Every
table starts with '#'-prefixed comment headers recording the tool version
and the inputs the run read, with a hash of them, and every JSON document
carries the same lines as its top-level ``headers``; the timestamp line is
the only non-reproducible header. ``_COMMANDS`` declares the flags each
subcommand reads: its parser accepts those and no others, and its headers
record those and no others. Presets (fig1..12) are JSON
job lists shipped with the package, one per paper figure dataset.
Every per-ratio preset table (fig3, 4, 5, 7, 9, 10, 11) is read from
`sweeps.ratio_sweep`, so it, like the width and detuning maps, spreads its
cells over ``--jobs`` workers; the writers here only arrange columns.
"""

import argparse
import datetime
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, absorption, coherent, optimal, sweeps
from .model import Atom
from .optimize import FAMILIES as OPTIMIZABLE, OptimizationProblem
from .optimize import build_state, optimize_pulse, search_box
from .states import FAMILIES, OptimalState, from_fields, spectral_densities

# defaults shared by every subcommand that reads the flag; _COMMANDS holds
# the ones a subcommand has to itself
_DEFAULTS = {
    "gamma_ratio": 1.0, "delta1": 0.0, "delta2": 0.0,
    "seed": 0, "jobs": 1, "out": ".", "tol": 1e-9,
    "family": "gaussian_product", "mu_free": True,
    "n1": 1.0, "n2": 1.0, "n_times": 400, "n_starts": 8,
    "t_star": 0.0, "fast": False,
}


def load_config(path):
    """Flat key=value lines or a JSON object; values parsed as JSON scalars."""
    text = Path(path).read_text()
    if path.endswith(".json"):
        return json.loads(text)
    cfg = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        try:
            cfg[key.strip()] = json.loads(val.strip())
        except json.JSONDecodeError:
            cfg[key.strip()] = val.strip()
    return cfg


# accepted config-file synonyms for the atom parameters
_KEY_ALIASES = {
    "gamma_e_over_gamma_f": "gamma_ratio",
    "delta1_over_gamma_f": "delta1",
    "delta2_over_gamma_f": "delta2",
}


def _effective(args):
    """The inputs the subcommand reads, merged as its defaults < config file <
    explicit flags. Config keys it does not read are dropped, and so are flags
    that are unset and have no default."""
    flags = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
    cfg = {**_DEFAULTS, **_COMMANDS[args.cmd][3]}
    if args.config:
        for k, v in load_config(args.config).items():
            cfg[_KEY_ALIASES.get(k, k)] = v
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    return {k: cfg[k] for k in sorted(flags) if cfg.get(k) is not None}


def _config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _headers(cfg):
    # jobs and out affect scheduling/placement only, never file contents
    cfg = {k: v for k, v in cfg.items() if k not in ("jobs", "out")}
    return [
        f"tpaopt {__version__}",
        f"config-hash: {_config_hash(cfg)}",
        f"config: {json.dumps(cfg, sort_keys=True, default=str)}",
        f"generated: {datetime.datetime.now().isoformat()}",
    ]


def _input(make, *args, **kwargs):
    """``make(*args, **kwargs)`` for an input built from the configuration;
    a value it rejects is a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _n_times(cfg):
    """The configured number of sample times; fewer than 2 is a usage error."""
    n = cfg["n_times"]
    if n < 2:
        raise argparse.ArgumentTypeError(f"n_times={n}: a scan needs at least 2 times")
    return n


def _atom_from(cfg):
    return _input(Atom, cfg["gamma_ratio"], 1.0, cfg["delta1"], cfg["delta2"])


def _family(cfg, table):
    """The configured family's tag; a usage error unless ``table`` holds it."""
    fam = cfg["family"].replace("-", "_")
    if fam not in table:
        raise argparse.ArgumentTypeError(
            f"family {fam!r} is not one of {', '.join(table)}")
    return fam


def _state_from_cfg(cfg, atom):
    # the matched state's atom is the configured one
    return _input(from_fields, FAMILIES[_family(cfg, FAMILIES)],
                  {**cfg, "atom": atom})


def _write_table(path, headers, columns, rows):
    """CSV with '#' headers; floats as .12g, anything else as its str."""
    lines = [f"# {h}" for h in headers]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def _write_json(path, doc):
    """``doc`` with numpy scalars and arrays as plain JSON, indented by 2."""
    Path(path).write_text(json.dumps(_jsonable(doc), indent=2))


def _write_grid(path, grid, headers, with_json=False):
    """A `sweeps.GridResult` as a long-format table, one row per cell; with
    ``with_json`` also as JSON beside it, carrying the same headers."""
    names, axes = zip(*grid.axes)
    rows = [[f"{ax[i]}" for ax, i in zip(axes, idx)]
            + [grid.values[idx], bool(cell["converged"])]
            for idx, cell in zip(np.ndindex(grid.values.shape), grid.cells)]
    _write_table(path, headers, [*names, "value", "converged"], rows)
    if with_json:
        _write_json(Path(path).with_suffix(".json"),
                    {"headers": headers,
                     "axes": [{"name": n, "values": v} for n, v in grid.axes],
                     "values": grid.values, "cells": grid.cells, "meta": grid.meta})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curve(cfg):
    atom = _atom_from(cfg)
    state = _state_from_cfg(cfg, atom)
    curve = absorption.excitation_curve(atom, state, n_times=_n_times(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    p1, p2 = state.marginal_densities()
    for t, p in zip(curve.times, curve.probabilities):
        rows.append((float(t), float(p), float(p1(t)), float(p2(t))))
    _write_table(out / "curve.csv", _headers(cfg) + [
        f"t_at_max: {curve.t_at_max:.12g}", f"p_max: {curve.p_max:.12g}"],
        ["t*gamma_f", "P_f", "profile1_sq", "profile2_sq"], rows)
    print(f"p_max = {curve.p_max:.9g} at t*gamma_f = {curve.t_at_max:.9g}")
    return 0


def cmd_optimize(cfg):
    atom = _atom_from(cfg)
    fam = _family(cfg, OPTIMIZABLE)
    problem = _input(OptimizationProblem, atom, fam, mu_free=cfg["mu_free"],
                     n1=cfg["n1"], n2=cfg["n2"], n_starts=cfg["n_starts"],
                     seed=cfg["seed"])
    res = optimize_pulse(problem)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (wlo, whi), (dlo, dhi) = search_box(atom)
    gf = atom.gamma_f
    _write_json(out / "optimize.json",
                {"headers": _headers(cfg), "problem": problem.to_dict(),
                 "search_bounds": {"widths_gamma_f": [wlo / gf, whi / gf],
                                   "delays_gamma_f": [dlo * gf, dhi * gf]},
                 "result": res.to_dict()})
    print(json.dumps({"params": {k: round(float(v), 6) for k, v in res.params.items()},
                      "p_max": round(res.p_max, 6)}))
    return 0


def cmd_coherent(cfg):
    atom = _atom_from(cfg)
    drive = _input(coherent.CoherentDrive, cfg["n1"], cfg["n2"], cfg["omega1"],
                   cfg["omega2"], cfg.get("mu", 0.0))
    window = drive.default_window(atom, n_samples=_n_times(cfg))
    traj = coherent.evolve(atom, drive, window, rtol=min(cfg["tol"] * 10, 1e-8))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    rho = [traj.rho_gg, traj.rho_ee, traj.rho_ff]
    for off_diagonal in (traj.rho_ge, traj.rho_gf, traj.rho_ef):
        rho += [off_diagonal.real, off_diagonal.imag]
    _write_table(out / "trajectory.csv", _headers(cfg),
                 ["t*gamma_f", "rho_gg", "rho_ee", "rho_ff", "re_rho_ge", "im_rho_ge",
                  "re_rho_gf", "im_rho_gf", "re_rho_ef", "im_rho_ef"],
                 zip(traj.times, *rho))
    tm, pm = coherent.pf_max_coherent(atom, drive, rtol=traj.meta["rtol"])
    print(f"p_max = {pm:.9g} at t*gamma_f = {tm:.9g}")
    return 0


def cmd_reference(cfg):
    atom = _atom_from(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    heads = _headers(cfg)
    gf = atom.gamma_f

    horizons = np.linspace(0.0, 12.0, 121)
    _write_table(out / "pmax_bound.csv", heads, ["horizon*gamma_f", "p_max_bound"],
                 [(float(h), float(optimal.pmax_bound(atom, h))) for h in horizons])

    t_star = cfg["t_star"]
    grid = np.linspace(-12.0, 12.0, 481)
    dens = spectral_densities(OptimalState(atom, t_star))
    _write_table(out / "spectral_densities.csv", heads,
                 ["detuning_over_gamma_f", "marginal1", "marginal2",
                  "sum_density", "diff_density"],
                 [(float(x), float(dens.marginal1(x)), float(dens.marginal2(x)),
                   float(dens.sum_density(x)), float(dens.diff_density(x)))
                  for x in grid])

    _, p1, p2 = optimal.arrival_densities(atom, t_star)
    tgrid = np.linspace(t_star - 12.0 / gf, t_star, 481)
    _write_table(out / "arrival_densities.csv", heads,
                 ["t*gamma_f", "p1", "p2"],
                 [(float(t), float(p1(t)), float(p2(t))) for t in tgrid])

    tau1, tau2 = optimal.arrival_expectations(atom, t_star)
    tau_r = absorption.residence_time(atom, OptimalState(atom, t_star))
    summary = {"gamma_e_over_gamma_f": atom.ratio,
               "tau1": tau1, "tau2": tau2, "tau2_minus_tau1": tau2 - tau1,
               "residence_time_gamma_f": tau_r * gf,
               "pmax_bound_inf": 1.0}
    _write_json(out / "reference.json", {"headers": heads, **summary})
    print(json.dumps({k: round(float(v), 9) for k, v in summary.items()}))
    return 0


def _preset_path(name):
    """The shipped preset ``name``; an unknown name is a usage error that
    lists the shipped ones."""
    presets = resources.files("tpaopt.presets")
    path = presets.joinpath(f"{name}.json")
    if not path.is_file():
        names = sorted((p.name[:-len(".json")] for p in presets.iterdir()
                        if p.name.endswith(".json")), key=lambda n: (len(n), n))
        raise argparse.ArgumentTypeError(
            f"preset {name!r} is not one of {', '.join(names)}")
    return path


def cmd_sweep(cfg):
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if cfg.get("preset"):
        spec = json.loads(_preset_path(cfg["preset"]).read_text())
        return _run_preset(spec, cfg, out)
    fam = _family(cfg, OPTIMIZABLE)
    grid = sweeps.ratio_sweep(fam, _ratios(cfg), seed=cfg["seed"], jobs=cfg["jobs"])
    heads = _headers(cfg)
    _write_grid(out / "ratio_sweep.csv", grid, heads, with_json=True)
    print(f"wrote {out / 'ratio_sweep.csv'}")
    return 0


def _ratios(cfg):
    """The configured lifetime ratios; one that is not a number or that no
    atom has is a usage error."""
    ratios = cfg.get("ratios") or [0.01, 0.1, 1.0, 10.0, 100.0]
    if isinstance(ratios, str):
        ratios = [_input(float, x) for x in ratios.split(",")]
    for r in ratios:
        _input(Atom, r, 1.0)
    return ratios


def _run_preset(spec, cfg, out):
    heads = _headers({**cfg, "preset_description": spec["description"]})
    for job in spec["jobs"]:
        kind = job["kind"]
        path = out / job["output"]
        if kind == "ratio_sweep":
            grid = sweeps.ratio_sweep(job["family"], job["ratios"],
                                      seed=cfg["seed"], jobs=cfg["jobs"])
            _write_grid(path, grid, heads)
            if job.get("entropy_output"):
                rows = [(c["ratio"], c["entropy_bits"], c["mu_free"])
                        for c in grid.cells]
                _write_table(out / job["entropy_output"], heads,
                             ["ratio", "entropy_bits", "mu_free"], rows)
        elif kind == "comparison_sweep":
            _write_table(path, heads, *_comparison(job, cfg))
        elif kind == "params_sweep":
            _write_table(path, heads, *_params_rows(job, cfg))
        elif kind == "exponential_sweep":
            _write_table(path, heads, *_exponential_rows(job, cfg))
        elif kind == "optimized_curve":
            _optimized_curve(job, cfg, heads, path)
        elif kind == "sensitivity":
            atom = Atom(job["gamma_ratio"], 1.0)
            if cfg.get("grid"):
                job["axis1"][2] = job["axis2"][2] = cfg["grid"]
            ax = np.linspace(*job["axis1"]), np.linspace(*job["axis2"])
            grid = sweeps.sensitivity_map(atom, job["family"], ax[0], ax[1],
                                          seed=cfg["seed"], jobs=cfg["jobs"])
            _write_grid(path, grid, heads)
        elif kind == "detuning":
            n = cfg.get("grid") or (job["n_fast"] if cfg.get("fast") else job["n"])
            d = np.linspace(-job["range"], job["range"], n)
            grid = sweeps.detuning_map(job["family"], job["gamma_ratio"], d, d,
                                       seed=cfg["seed"], jobs=cfg["jobs"],
                                       n_starts=job.get("n_starts", 4))
            _write_grid(path, grid, heads, with_json=True)
        elif kind == "biphoton_density":
            _biphoton_density(job, cfg, heads, out)
        else:
            raise ValueError(f"unknown preset job kind {kind!r}")
        print(f"wrote {path}")
    return 0


def _comparison(job, cfg):
    """Entangled vs product optima per ratio, the delay free and at zero."""
    ent, prod = (sweeps.ratio_sweep(fam, job["ratios"], seed=cfg["seed"],
                                    jobs=cfg["jobs"]).values.tolist()
                 for fam in ("entangled_gaussian", "gaussian_product"))
    cols = ["ratio", "entangled_mu_free", "product_mu_free",
            "entangled_mu_zero", "product_mu_zero", "improvement_mu_free"]
    rows = [(float(r), e[0], p[0], e[1], p[1], e[0] - p[0])
            for r, e, p in zip(job["ratios"], ent, prod)]
    return cols, rows


def _params_rows(job, cfg):
    """Delay-free optima per ratio with their parameters in linewidth units,
    for the two Gaussian families."""
    family = job["family"]
    grid = sweeps.ratio_sweep(family, job["ratios"], ("mu_free",),
                              seed=cfg["seed"], jobs=cfg["jobs"])
    rows = []
    for cell in grid.cells:
        ge, gf = cell["ratio"], 1.0  # every sweep runs at gamma_f = 1
        p = cell["params"]
        row = {k: cell[k] for k in ("ratio", "p_max", "t_at_max", "converged")}
        row["mu_ge"] = p["mu"] * ge
        if family == "entangled_gaussian":
            st = from_fields(FAMILIES[family], p)
            row.update({"omega_plus": p["omega_plus"],
                        "omega_minus": p["omega_minus"],
                        "omega_plus_over_gf": p["omega_plus"] / gf,
                        "omega_minus_over_gf2ge": p["omega_minus"] / (gf + 2 * ge),
                        "two_sigma_t2": 2.0 * st.sigma_t2,
                        "two_sigma_w2": 2.0 * st.sigma_w2,
                        "entropy_bits": cell["entropy_bits"]})
        else:  # gaussian_product
            row.update({"omega1": p["omega1"], "omega2": p["omega2"],
                        "omega1_over_ge": p["omega1"] / ge,
                        "omega2_over_gegf": p["omega2"] / (ge + gf)})
        rows.append(row)
    cols = sorted({k for r in rows for k in r})
    return cols, [tuple(r[c] for c in cols) for r in rows]


def _exponential_rows(job, cfg):
    """Rising pair at its closed-form optimum; decaying pair optimized with
    the shift free and at zero."""
    cols = ["ratio", "rising_p_max", "rising_omega1", "rising_omega2",
            "decaying_shift_p_max", "decaying_noshift_p_max"]
    rows = []
    decaying = sweeps.ratio_sweep("decaying_exp", job["ratios"], seed=cfg["seed"],
                                  jobs=cfg["jobs"]).values.tolist()
    for r, (shift, noshift) in zip(job["ratios"], decaying):
        om1, om2, p_rise = absorption.pf_max_rising(Atom(r, 1.0))
        rows.append((float(r), p_rise, om1, om2, shift, noshift))
    return cols, rows


def _optimized_curve(job, cfg, heads, path):
    atom = Atom(job["gamma_ratio"], 1.0)
    problem = OptimizationProblem(atom, job["family"], mu_free=job["mu_free"],
                                  seed=cfg["seed"])
    res = optimize_pulse(problem)
    pulse = build_state(problem, res.params)
    curve = absorption.excitation_curve(atom, pulse)
    p1, p2 = pulse.marginal_densities()
    rows = [(float(t), float(p), float(p1(t)), float(p2(t)))
            for t, p in zip(curve.times, curve.probabilities)]
    _write_table(path, heads + [f"params: {json.dumps(res.params, default=float)}",
                                f"p_max: {res.p_max:.12g}"],
                 ["t*gamma_f", "P_f", "profile1_sq", "profile2_sq"], rows)


def _biphoton_density(job, cfg, heads, out):
    atom = Atom(job["gamma_ratio"], 1.0)
    n = 81  # points per axis
    fam = job["family"]
    if fam == "entangled_gaussian":
        problem = OptimizationProblem(atom, fam, mu_free=True, seed=cfg["seed"])
        st = build_state(problem, optimize_pulse(problem).params)
        w = 3.0 * np.sqrt(st.sigma_t2)
        t = np.linspace(-w + st.mu / 2, w + st.mu, n)
        dens_t = np.abs(st.amplitude(t[:, None], t[None, :])) ** 2
        op, om = st.omega_plus, st.omega_minus
        wmax = 1.5 * max(op, om)
        om_grid = np.linspace(-wmax, wmax, n)
        o2, o1 = np.meshgrid(om_grid, om_grid, indexing="ij")
        dens_w = (2.0 / (np.pi * op * om)) * np.exp(
            -((o1 + o2) / op) ** 2 - ((o2 - o1) / om) ** 2)
    else:
        ge, gf = atom.gamma_e, atom.gamma_f
        w = 8.0 / min(ge, gf)
        t = np.linspace(-w, 0.0, n)
        p_joint, _, _ = optimal.arrival_densities(atom, 0.0)
        dens_t = p_joint(t[:, None], t[None, :])
        wmax = 3.0 * (ge + gf)
        om_grid = np.linspace(-wmax, wmax, n)
        o2, o1 = np.meshgrid(om_grid, om_grid, indexing="ij")
        dens_w = (ge * gf / (4 * np.pi**2)) / (
            (o1**2 + ge**2 / 4) * ((o1 + o2) ** 2 + gf**2 / 4))
    for tag, grid_ax, dens in (("time", t, dens_t), ("freq", om_grid, dens_w)):
        _write_table(out / job["output"].replace(".csv", f"_{tag}.csv"), heads,
                     ["axis1", "axis2", "density"],
                     [(f"{a:.10g}", f"{b:.10g}", f"{dens[i, j]:.10g}")
                      for i, a in enumerate(grid_ax) for j, b in enumerate(grid_ax)])


# the flags each subcommand reads besides --config, with the defaults that
# are its own: subcommand -> (runner, help, flags, defaults over _DEFAULTS)
_ATOM = ("gamma_ratio", "delta1", "delta2")
_COMMANDS = {
    "curve": (cmd_curve, "excitation-probability curve for one state",
              (*_ATOM, "out", "family", "omega1", "omega2", "omega_plus",
               "omega_minus", "mu", "t_shift", "t_star", "t0", "n_times"), {}),
    "optimize": (cmd_optimize, "maximize p_max over pulse parameters",
                 (*_ATOM, "out", "seed", "family", "n1", "n2", "mu_free",
                  "n_starts"), {}),
    "sweep": (cmd_sweep, "ratio sweeps, sensitivity and detuning maps",
              ("out", "seed", "jobs", "preset", "family", "ratios", "grid",
               "fast"), {}),
    "reference": (cmd_reference, "matched-state reference quantities",
                  (*_ATOM, "out", "t_star"), {}),
    "coherent": (cmd_coherent, "master-equation trajectory for coherent pulses",
                 (*_ATOM, "out", "tol", "n1", "n2", "omega1", "omega2", "mu",
                  "n_times"), {"omega1": 1.0, "omega2": 1.0}),
}

# argparse keywords of every flag that does not take one float; each flag is
# spelled --dest-with-dashes, and mu_free is the --mu-free/--mu-zero pair
_FLAG_KW = {
    "config": {"help": "key=value or JSON config file"},
    "out": {}, "family": {}, "ratios": {}, "preset": {},
    "seed": {"type": int}, "jobs": {"type": int}, "grid": {"type": int},
    "n_times": {"type": int}, "n_starts": {"type": int},
    "fast": {"action": "store_true", "default": None},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tpaopt",
        description="Two-photon excitation of a ladder three-level atom: "
                    "curves, optima, bounds, and sweep datasets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, text, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest in ("config", *flags):
            if dest == "mu_free":
                g = p.add_mutually_exclusive_group()
                g.add_argument("--mu-free", dest=dest, action="store_true",
                               default=None)
                g.add_argument("--mu-zero", dest=dest, action="store_false")
            else:
                p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                               **_FLAG_KW.get(dest, {"type": float}))
    return parser


def main(argv=None):
    """Run one subcommand. OpenBLAS runs one thread while it does: the
    package's matrices are small, and helper threads only add wake-ups.
    The caller's thread counts are restored on the way out."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with sweeps._one_blas_thread():
        try:
            return _COMMANDS[args.cmd][0](_effective(args))
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
