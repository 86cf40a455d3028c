"""The output-tree diff of tools/outputs.py on tiny synthetic trees."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)

_CSV = """# tpaopt 0.1.0
# config: {{"ratios": [0.5, 5.0]}}
# generated: {when}
# p_max: 0.555365912
ratio,{column},converged
0.5,0.123456789012,True
5,0.987654321098,{flag}
"""


def _tree(root, when="2026-01-01T00:00:00", column="P_f", value="0.987654321098",
          flag="True"):
    root.mkdir()
    csv = _CSV.format(when=when, column=column, flag=flag)
    (root / "sweep.csv").write_text(csv.replace("0.987654321098", value))
    doc = {"headers": ["tpaopt 0.1.0", f"generated: {when}"],
           "values": [0.25, float(value)], "cells": [{"converged": flag == "True"}]}
    (root / "sweep.json").write_text(json.dumps(doc, indent=2))
    (root / "stdout.txt").write_text(f"p_max = {value} at t*gamma_f = 1.5\n")
    return root


def _diff(a, b, rtol=0.0):
    lines = []
    status = outputs.diff(a, b, rtol, report=lines.append)
    return status, lines


def test_identical_below_the_generated_line(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", when="2026-06-30T12:34:56")
    status, lines = _diff(a, b)
    assert status == 0
    assert lines[:-1] == [f"{f}: identical" for f in ("stdout.txt", "sweep.csv", "sweep.json")]
    assert lines[-1] == "3 files: 3 identical"


def test_moved_digit_is_numeric(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", value="0.987654321099")
    status, lines = _diff(a, b)
    assert status == 1
    csv = next(ln for ln in lines if ln.startswith("sweep.csv:"))
    assert csv.startswith("sweep.csv: numeric: 1 numbers moved, the largest by 1.01e-12 "
                          "relative at row 2 P_f")
    assert csv.endswith("; 0 converged flags changed; 0 non-numeric changes")
    assert lines[-1].startswith("3 files: 3 numeric; largest move 1.01e-12 relative")
    # a move within --rtol passes
    assert _diff(a, b, rtol=1e-11)[0] == 0


def test_renamed_column_and_flag_are_reported(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", column="P_f_or_rho_ff", flag="False")
    status, lines = _diff(a, b)
    assert status == 1
    i = lines.index("sweep.csv: numeric: 0 numbers moved; 1 converged flags changed; "
                    "1 non-numeric changes")
    assert lines[i + 1:i + 3] == ["    row 2 converged: True -> False",
                                  "    column 2: 'P_f' -> 'P_f_or_rho_ff'"]
    assert "    cells[0].converged: True -> False" in lines
    # rtol forgives moved numbers, never a renamed column or a changed flag
    assert _diff(a, b, rtol=1.0)[0] == 1


def test_header_number_and_missing_file(tmp_path):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b")
    text = (b / "sweep.csv").read_text()
    (b / "sweep.csv").write_text(text.replace("# p_max: 0.555365912", "# p_max: 0.555365913"))
    (b / "stdout.txt").unlink()
    status, lines = _diff(a, b)
    assert status == 1
    assert lines[0] == "stdout.txt: only in A"
    assert lines[1].startswith("sweep.csv: numeric: 1 numbers moved, the largest by 1.8e-09 "
                               "relative at header 3 p_max")


@pytest.mark.parametrize("argv", [["run", "out", "fig13"], ["diff", "a"]])
def test_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        outputs.main(argv)
    assert exc.value.code == 2


def test_nan_or_infinity_against_a_number_is_the_largest_move():
    for b in (float("nan"), float("inf")):
        d = outputs.FileDiff()
        d.number(1.0, b, "x")
        assert (d.moved, d.largest[0]) == (1, float("inf"))
