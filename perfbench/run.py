"""tpaopt benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``). The client runs whole rounds of the workload's operations, each
starting after the previous one finished, until S seconds have passed.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs one untraced round, then one round with spans around every layer
(``jobs=1``) and prints the per-layer metrics. The last line of standard
output is the JSON result; details of failed checks go to standard error.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="import and build the inputs, print 'ready', exit")
    return ap.parse_args(argv)


def run_rounds(wl, jobs, seconds):
    """Whole rounds until ``seconds`` have passed (at least one).

    Returns (outputs of the first round, summaries of every round, op times,
    round times, failed count).
    """
    first, summaries, op_times, round_times = None, [], [], []
    failed = 0
    begin = time.perf_counter()
    while True:
        outputs = []
        r0 = time.perf_counter()
        for op in wl.ops:
            t0 = time.perf_counter()
            try:
                out = wl.run(op, jobs)
            except Exception:
                failed += 1
                out = None
                traceback.print_exc()
            else:
                op_times.append(time.perf_counter() - t0)
            outputs.append(out)
        round_times.append(time.perf_counter() - r0)
        summaries.append([None if o is None else wl.summary(o) for o in outputs])
        first = first or outputs
        if time.perf_counter() - begin >= seconds:
            return first, summaries, op_times, round_times, failed


def peak_rss_mb(jobs):
    """Peak RSS of this process plus ``jobs`` times the largest worker's.

    An upper bound: each forked worker counts again the pages it shares
    copy-on-write with this process. Read while the only finished children
    are the pool workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * workers) / 1024.0


def setup_seconds(workload, seed, repeats=7):
    """Median over fresh interpreters of start-up until the inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return statistics.median(times)


def end_to_end(wl, args):
    first, summaries, op_times, round_times, failed = run_rounds(wl, wl.jobs, args.seconds)
    rss = peak_rss_mb(wl.jobs)
    metrics = {
        "setup_s": (setup_seconds(args.workload, args.seed), "s"),
        "wall_s": (statistics.median(round_times), "s"),
        "op_p50_s": (statistics.median(op_times) if op_times else 0.0, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    bad = [f"round {k} differs from round 0"
           for k, s in enumerate(summaries[1:], start=1) if s != summaries[0]]
    return metrics, len(summaries) * len(wl.ops), failed, first, bad


def per_layer(wl, args):
    import numpy as np
    from spans import Tracer, metric_units

    _, plain, _, plain_times, failed_plain = run_rounds(wl, wl.jobs, 0.0)
    with Tracer() as tracer:
        first, traced, _, traced_times, failed = run_rounds(wl, 1, 0.0)
    values = tracer.metrics()
    values["trace.overhead_s"] = traced_times[0] - plain_times[0]
    units = metric_units()
    metrics = {k: (values[k], units[k]) for k in units}
    RESULTS.mkdir(exist_ok=True)
    np.savez_compressed(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz",
                        **tracer.arrays())
    bad = [] if plain == traced else [
        f"traced jobs=1 round differs from the untraced jobs={wl.jobs} round"]
    return metrics, 2 * len(wl.ops), failed_plain + failed, first, bad


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "tpaopt").is_dir():
        print(f"no tpaopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, outputs, bad = measure(wl, args)
    if failed:
        bad.append(f"{failed} operations failed; outputs not checked")
    else:
        bad += wl.check(outputs)
    for msg in bad:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {"correct": not bad, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
