"""Write the package's reference outputs into a directory, and diff two of them.

    python tools/outputs.py run DIR [NAME ...] [--jobs N] [--src SRC]
    python tools/outputs.py diff A B [--rtol R]

``run`` writes each named output set into DIR/NAME: the presets fig1-fig11,
fig12 at ``--fast``, and the README's command-line examples that are not
presets (``python tools/outputs.py run --help`` lists the names; no NAME
means all of them). Each set runs the ``tpaopt`` command line of SRC (by
default this checkout's ``src``) in a subprocess; ``--jobs`` goes to the
sweep commands. A set's standard output is kept as DIR/NAME/stdout.txt, with
its output directory written as ``$OUT``.

``diff`` compares every file of tree A with the file at the same path in
tree B and reports it as

* ``identical``: equal once the ``generated:`` line is skipped;
* ``header-only``: only header text differs (the ``#`` lines of a CSV, the
  ``headers`` list of a JSON document), and no number in it;
* ``numeric``: anything else, with the count of moved numbers, the largest
  relative move |b - a| / max(|a|, |b|) and where it is, the changed
  ``converged`` flags and every other non-numeric change (a renamed column,
  a row or key that only one side has).

CSV cells, the JSON values of ``# key: value`` header lines, JSON leaves and
the numbers in any other text are compared one by one. The exit status is 1
when a number moves by more than ``--rtol`` (default 0, any move), when a
non-numeric change or a changed flag is found outside the headers, or when a
file is in one tree only; otherwise 0.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# name -> arguments of the tpaopt command line; sweeps also take --jobs
SETS = {
    **{f"fig{k}": ["sweep", "--preset", f"fig{k}"] for k in range(1, 12)},
    "fig12": ["sweep", "--preset", "fig12", "--fast"],
    "curve-optimal": ["curve", "--family", "optimal", "--gamma-ratio", "1",
                      "--t-star", "0"],
    "curve-gaussian": ["curve", "--family", "gaussian-product", "--omega1", "1.11",
                       "--omega2", "1.96", "--mu", "1.19"],
    "optimize": ["optimize", "--family", "entangled-gaussian", "--gamma-ratio", "5",
                 "--mu-free"],
    "reference": ["reference", "--gamma-ratio", "1"],
    "coherent": ["coherent", "--gamma-ratio", "1", "--n1", "1", "--n2", "1",
                 "--omega1", "1", "--omega2", "1.5"],
    "sweep": ["sweep", "--family", "gaussian_product", "--ratios", "0.01,0.1,1,10,100"],
}

_GENERATED = re.compile(r'^(# |\s*")generated: ')
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def run(out, names, jobs, src):
    """Write each set of ``names`` into out/NAME; returns the exit status of
    the first command that failed, else 0."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name in names:
        target = Path(out) / name
        argv = SETS[name] + ["--out", str(target)]
        if argv[0] == "sweep":
            argv += ["--jobs", str(jobs)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tpaopt.cli", *argv], env=env,
                              capture_output=True, text=True)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        target.mkdir(parents=True, exist_ok=True)
        (target / "stdout.txt").write_text(proc.stdout.replace(str(target), "$OUT"))
    return 0


class FileDiff:
    """What differs between two versions of one file."""

    def __init__(self):
        self.moved = 0          # numbers that differ
        self.largest = (0.0, None)  # (relative move, where: text)
        self.flags = []         # changed converged flags, by place
        self.changes = []       # other non-numeric changes, by place
        self.header = []        # header-text changes that move no number

    def number(self, a, b, where):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.moved += 1
        rel = abs(b - a) / max(abs(a), abs(b))
        rel = math.inf if math.isnan(rel) else rel  # a nan or an infinity moved
        if rel > self.largest[0]:
            self.largest = (rel, f"{where} ({a!r} -> {b!r})")

    def text(self, a, b, where, header=False):
        if a == b:
            return
        if where.endswith("converged"):
            self.flags.append(f"{where}: {a} -> {b}")
        else:
            (self.header if header else self.changes).append(f"{where}: {a!r} -> {b!r}")

    def kind(self):
        if self.moved or self.flags or self.changes:
            return "numeric"
        return "header-only" if self.header else "identical"


def _as_number(x):
    """x as a float when it is a JSON or CSV number, else None."""
    if isinstance(x, bool) or x is None:
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _compare_json(a, b, where, d, header=False):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            at = f"{where}.{k}" if where else k
            if k not in a or k not in b:
                d.text("absent" if k not in a else "present",
                       "absent" if k not in b else "present", at, header)
            else:
                _compare_json(a[k], b[k], at, d, header or (not where and k == "headers"))
    elif isinstance(a, list) and isinstance(b, list):
        a = [x for x in a if not (isinstance(x, str) and x.startswith("generated: "))]
        b = [x for x in b if not (isinstance(x, str) and x.startswith("generated: "))]
        if len(a) != len(b):
            d.text(f"{len(a)} items", f"{len(b)} items", where, header)
        for i, (x, y) in enumerate(zip(a, b)):
            if header and isinstance(x, str) and isinstance(y, str):
                _compare_header_line(x, y, f"{where}[{i}]", d)
            else:
                _compare_json(x, y, f"{where}[{i}]", d, header)
    else:
        x, y = _as_number(a), _as_number(b)
        if x is not None and y is not None and not isinstance(a, str):
            d.number(x, y, where)
        else:
            d.text(a, b, where, header)


def _compare_header_line(a, b, where, d):
    """Header lines ``key: value``: a JSON value is compared leaf by leaf
    (its numbers count as moved), anything else as header text."""
    ka, _, va = a.partition(": ")
    kb, _, vb = b.partition(": ")
    if ka == kb:
        try:
            va_doc, vb_doc = json.loads(va), json.loads(vb)
        except ValueError:
            pass
        else:
            return _compare_json(va_doc, vb_doc, f"{where} {ka}", d, header=True)
    d.text(a, b, where, header=True)


def _compare_csv(a, b, d):
    heads = [[ln[2:] for ln in t if ln.startswith("# ")] for t in (a, b)]
    rows = [[ln.split(",") for ln in t if not ln.startswith("#")] for t in (a, b)]
    if len(heads[0]) != len(heads[1]):
        d.text(f"{len(heads[0])} lines", f"{len(heads[1])} lines", "headers", True)
    for i, (x, y) in enumerate(zip(*heads)):
        _compare_header_line(x, y, f"header {i + 1}", d)
    ra, rb = rows
    if len(ra) != len(rb):
        d.text(f"{len(ra)} rows", f"{len(rb)} rows", "table")
    names = ra[0] if ra else []
    for i, (x, y) in enumerate(zip(ra, rb)):
        if len(x) != len(y):
            d.text(",".join(x), ",".join(y), f"row {i}")
            continue
        for j, (u, v) in enumerate(zip(x, y)):
            col = names[j] if j < len(names) else str(j)
            where = f"column {j + 1}" if i == 0 else f"row {i} {col}"
            nu, nv = _as_number(u), _as_number(v)
            if i > 0 and nu is not None and nv is not None:
                d.number(nu, nv, where)
            else:
                d.text(u, v, where)


def _compare_text(a, b, d):
    if len(a) != len(b):
        d.text(f"{len(a)} lines", f"{len(b)} lines", "text")
    for i, (x, y) in enumerate(zip(a, b)):
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
            d.text(x, y, f"line {i + 1}")
            continue
        for u, v in zip(_NUMBER.findall(x), _NUMBER.findall(y)):
            d.number(float(u), float(v), f"line {i + 1}")


def compare_files(path_a, path_b):
    """The `FileDiff` of two versions of one output file."""
    texts = [Path(p).read_text() for p in (path_a, path_b)]
    d = FileDiff()
    lines = [[ln for ln in t.splitlines() if not _GENERATED.match(ln)] for t in texts]
    if lines[0] == lines[1]:
        return d
    suffix = Path(path_a).suffix
    try:
        docs = [json.loads(t) for t in texts] if suffix == ".json" else None
    except ValueError:
        docs = None
    if docs is not None:
        _compare_json(*docs, "", d)
    elif suffix == ".csv":
        _compare_csv(*lines, d)
    else:
        _compare_text(*lines, d)
    if d.kind() == "identical":
        d.changes.append("the same values, written differently")
    return d


def diff(a, b, rtol, report=print):
    """Report every file of trees a and b; returns the exit status."""
    files = [{p.relative_to(root).as_posix() for p in Path(root).rglob("*") if p.is_file()}
             for root in (a, b)]
    status, counts, worst = 0, Counter(), (0.0, None)
    for rel in sorted(files[0] | files[1]):
        if rel not in files[0] or rel not in files[1]:
            report(f"{rel}: only in {'B' if rel in files[1] else 'A'}")
            counts["one tree only"] += 1
            status = 1
            continue
        d = compare_files(Path(a) / rel, Path(b) / rel)
        kind = d.kind()
        counts[kind] += 1
        if kind != "numeric":
            report(f"{rel}: {kind}")
            for line in d.header:
                report(f"    {line}")
            continue
        rel_move, where = d.largest
        report(f"{rel}: numeric: {d.moved} numbers moved"
               + (f", the largest by {rel_move:.3g} relative at {where}" if d.moved else "")
               + f"; {len(d.flags)} converged flags changed"
               + f"; {len(d.changes)} non-numeric changes")
        for line in d.flags + d.changes:
            report(f"    {line}")
        if rel_move > rtol or d.flags or d.changes:
            status = 1
        if d.moved and (worst[1] is None or rel_move > worst[0]):
            worst = (rel_move, f"{rel} {where}")
    summary = ", ".join(f"{n} {k}" for k, n in sorted(counts.items()))
    report(f"{sum(counts.values())} files: {summary}"
           + (f"; largest move {worst[0]:.3g} relative at {worst[1]}" if worst[1] else ""))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Write reference outputs of tpaopt, or diff two output trees.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="write output sets into DIR/NAME")
    p.add_argument("dir")
    p.add_argument("names", nargs="*", metavar="NAME",
                   help=f"output sets, all by default: {', '.join(SETS)}")
    p.add_argument("--jobs", type=int, default=1, help="--jobs of the sweep commands")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                   help="directory holding the tpaopt package to run")
    p = sub.add_parser("diff", help="compare two output trees")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rtol", type=float, default=0.0,
                   help="largest relative move that still exits 0")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        unknown = [n for n in args.names if n not in SETS]
        if unknown:
            parser.error(f"unknown output sets {', '.join(unknown)}; known: {', '.join(SETS)}")
        return run(args.dir, args.names or list(SETS), args.jobs, args.src)
    return diff(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
