"""Re-measure the baseline rows of ROADMAP.md with fixed inputs.

    python3 perfbench/baseline.py

Prints one line per row: the median wall time over repeated calls and the
number of repeats. The fig3 row runs ``tpaopt sweep --preset fig3`` in a
fresh interpreter and writes its files under perfbench/results/fig3.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tpaopt import absorption, coherent  # noqa: E402
from tpaopt.model import Atom  # noqa: E402
from tpaopt.optimize import (OptimizationProblem, default_starts,  # noqa: E402
                             optimize_pulse)
from tpaopt.states import EntangledGaussian, GaussianProduct  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), repeats


def rows():
    one = Atom(1.0, 1.0)
    gp = GaussianProduct(1.115, 1.956, 1.191)  # the equal-rate optimum
    eg_atom = Atom(0.5, 1.0)
    eg = EntangledGaussian(0.79, 1.38, 1.62)
    lo, hi = absorption.scan_bounds(one, gp)
    times = np.linspace(lo, hi, 200)
    t_max, _ = absorption.pf_max_over_t(one, gp)
    drive = coherent.CoherentDrive(1.0, 1.0, 1.76, 2.80, 0.68)
    yield "curve_amplitudes, 200 times, GP at optimum", timed(
        lambda: absorption.curve_amplitudes(one, gp, times), 200)
    yield "pf_max_over_t GP", timed(lambda: absorption.pf_max_over_t(one, gp), 100)
    yield "pf_max_over_t EG(r=0.5)", timed(lambda: absorption.pf_max_over_t(eg_atom, eg), 100)
    yield "pf_at(method='quadrature') GP", timed(
        lambda: absorption.pf_at(one, gp, t_max, method="quadrature"), 20)
    yield "pf_inner_product GP", timed(lambda: absorption.pf_inner_product(one, gp, t_max), 20)
    yield "coherent.pf_max_coherent", timed(
        lambda: coherent.pf_max_coherent(one, drive, rtol=1e-7, atol=1e-9), 20)
    yield "optimize_pulse GP r=1 mu-free", timed(
        lambda: optimize_pulse(OptimizationProblem(one, "gaussian_product")), 3)
    yield "optimize_pulse EG r=5", timed(
        lambda: optimize_pulse(OptimizationProblem(Atom(5.0, 1.0), "entangled_gaussian")), 3)
    yield "optimize_pulse coherent r=1", timed(
        lambda: optimize_pulse(OptimizationProblem(one, "coherent")), 1)
    # one fig12 cell: GP r=0.5 at (delta1, delta2) = (1, 0), warm-started
    warm = optimize_pulse(OptimizationProblem(Atom(0.5, 1.0), "gaussian_product")).params
    cell = OptimizationProblem(Atom(0.5, 1.0, 1.0, 0.0), "gaussian_product",
                               n_starts=4, max_evals=1200)
    starts = [warm] + default_starts(cell)[:3]
    yield "one fig12 detuning cell (GP, r=0.5)", timed(
        lambda: optimize_pulse(cell, starts=starts), 3)
    out = HERE / "results" / "fig3"
    cmd = [sys.executable, "-m", "tpaopt.cli", "sweep", "--preset", "fig3",
           "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    yield "tpaopt sweep --preset fig3 end to end", timed(
        lambda: subprocess.run(cmd, check=True, env=env,
                               stdout=subprocess.DEVNULL), 1)


def main():
    for name, (median, n) in rows():
        print(f"{name:<42} {median * 1e3:12.2f} ms  (median of {n})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
