"""Collect sets of benchmark runs and compare two sets against the bounds.

    python3 perfbench/compare.py collect OUT.jsonl [--seeds 1-10]
    python3 perfbench/compare.py compare BASE.jsonl [NEW.jsonl]

``collect`` runs ``run.py`` untraced once per workload of BENCHMARK.json and
seed, one after another, with BENCHMARK.json's run length, and appends each
result, tagged with workload and seed, to OUT.jsonl.
``compare`` reports, per workload and end-to-end metric, the median and
quartiles of each set, the spread (interquartile range over median) and
the change of the median in the metric's worse direction, each against the
metric's bound. It also compares the share of failed operations. With one
file it reports that set's spreads only. Exit status 1 means something is
out of bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    spec = load_spec()
    for w in spec["workloads"]:
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{w['name']} seed {seed}: exit {proc.returncode} {last[0]}", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                continue
            with open(args.out, "a") as fh:
                rec = {"workload": w["name"], "seed": seed, **json.loads(last[0])}
                fh.write(json.dumps(rec) + "\n")
    return 0


def load_runs(path):
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs[rec["workload"]].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    spec = load_spec()
    base = load_runs(args.base)
    new = load_runs(args.new) if args.new else None
    ok = True
    head = f"{'workload':<13} {'metric':<12} {'base q1/med/q3':<30} {'spread':>7}"
    if new:
        head += f" {'new q1/med/q3':<30} {'spread':>7} {'worse':>7}"
    print(head + "  bound")
    for w in spec["workloads"]:
        name = w["name"]
        sides = [base.get(name, [])] + ([new.get(name, [])] if new else [])
        if not all(sides):
            print(f"{name:<13} (no runs)")
            ok = False
            continue
        for m in spec["end_to_end"]:
            row, meds = f"{name:<13} {m['name']:<12}", []
            for runs in sides:
                q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
                spread = (q3 - q1) / med
                good = spread <= m["bound"]
                ok &= good
                meds.append(med)
                row += f" {q1:9.4g}/{med:9.4g}/{q3:9.4g} {spread:7.1%}{'' if good else '!'}"
            if new:
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (meds[1] - meds[0]) / meds[0]
                good = worse <= m["bound"]
                ok &= good
                row += f" {worse:+7.1%}{'' if good else '!'}"
            print(row + f"  {m['bound']:.0%}")
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sides]
        same = all(len(s) == 1 for s in shares) and len(set.union(*shares)) == 1
        ok &= same
        print(f"{name:<13} failed share {' vs '.join(str(sorted(s)) for s in shares)}"
              f"{'' if same else '  !'}")
    print("within bounds" if ok else "OUT OF BOUNDS (marked !)")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.set_defaults(fn=collect)
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("new", nargs="?")
    k.set_defaults(fn=compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
