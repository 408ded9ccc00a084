"""Golden output of ``modfix check``, ``solve`` and ``bounds`` on both backends.

The configs and their expected output live in ``tests/golden``.  The
expected text was produced by earlier code (the check output before the
samplers learned to reuse point-level values, the solve and bounds output
before the solver reused its forward-orbit check), so any refactor that
changes a printed byte, a CSV byte or an exit code fails here.
"""

from pathlib import Path

import pytest

from modfix.cli import main

GOLDEN = Path(__file__).parent / "golden"

# config name -> expected exit code
CASES = {"check_builtin_banach": 0, "check_expr_kannan": 1}
SOLVE_CASES = {"solve_kannan_readme": 0, "solve_banach_poset": 0,
               "solve_fixed_start": 0, "solve_no_convergence": 2}
BOUNDS_CASES = {"solve_kannan_readme": 0, "solve_banach_poset": 0}

# stdout names the CSV path; the golden text has this in its place
OUT_PLACEHOLDER = "<out>"


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_check_stdout_matches_golden(name, backend, capsys):
    code = main(["check", "--config", str(GOLDEN / f"{name}.json"),
                 "--backend", backend])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.{backend}.out").read_text()
    assert code == CASES[name]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("verb, name", [("solve", n) for n in sorted(SOLVE_CASES)]
                         + [("bounds", n) for n in sorted(BOUNDS_CASES)])
def test_table_verbs_match_golden(verb, name, backend, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    code = main([verb, "--config", str(GOLDEN / f"{name}.json"),
                 "--backend", backend, "--out", str(csv_path)])
    out = capsys.readouterr().out.replace(str(csv_path), OUT_PLACEHOLDER)
    stem = f"{name}.{verb}.{backend}"
    assert out == (GOLDEN / f"{stem}.out").read_text()
    assert csv_path.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
    expected = SOLVE_CASES[name] if verb == "solve" else BOUNDS_CASES[name]
    assert code == expected
