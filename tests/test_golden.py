"""Golden output of ``modfix check``, ``solve`` and ``bounds`` on both backends,
and of ``modfix repro``.

The configs and their expected output live in ``tests/golden``.  The
expected text was produced by earlier code (the check output before the
samplers learned to reuse point-level values, the abs-norm and cubic check
output before the samplers evaluated builtin modulars on integers, the
solve and bounds output before the solver reused its forward-orbit check,
the depth-120 bounds digests before the bound table was tabulated per
index, the default-sample check of a non-convex builtin modular before the
convex flag was set with ``dataclasses.replace``, the M3 witnesses of an
exact expression modular before the samplers formed its combinations on
integer numerators, the bounds tables of a two-coordinate weighted-power
modular and of an expression modular before the gap column was read from a
table, every expression node kind before expressions were compiled to closures,
and the repro detail lines before exact random draws were built as one
Fraction each), so any refactor that
changes a printed byte, a CSV byte or an exit code fails here.
"""

import csv
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from modfix.cli import main
from modfix.config import load_config
from modfix.modular import rho_gap

GOLDEN = Path(__file__).parent / "golden"

# config name -> expected exit code
CASES = {"check_builtin_banach": 0, "check_expr_kannan": 1,
         "check_abs_norm_dim1": 0, "check_power3_dim3": 0,
         "check_defaults_nonconvex": 0, "check_expr_asymmetric": 1,
         "expr_every_node": 1, "solve_kannan_affine": 0}
SOLVE_CASES = {"solve_kannan_readme": 0, "solve_banach_poset": 0,
               "solve_fixed_start": 0, "solve_no_convergence": 2,
               "expr_every_node": 0, "solve_kannan_affine": 0}
BOUNDS_CASES = {"solve_kannan_readme": 0, "solve_banach_poset": 0,
                "bounds_weighted_affine": 0, "bounds_expr_piecewise": 0,
                "expr_every_node": 0}
# expr_every_node uses every expression node kind: unary minus, '/', '^3',
# nested piecewise with '<', '<=' and '=' guards and a branch no sample or
# orbit takes, and a custom edge predicate with a constant

# solve_kannan_affine is f(x) = x/10 on abs-norm with Kannan (3/10, 1/5, 1/2,
# 1, 1), which holds on the whole line; rho(b(x_2 - x_0)) = 99/100 exceeds
# d0 = 9/10, so the start row has no a-priori bound

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


# the solve goldens whose hypotheses hold: check exits 0 on the config and the
# forward-orbit check of the solve is ok
BOUND_GUARD_CASES = ("solve_kannan_readme", "solve_banach_poset",
                     "solve_fixed_start", "solve_kannan_affine")


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", BOUND_GUARD_CASES)
def test_solve_csv_bounds_hold_on_every_later_row(name, backend, tmp_path,
                                                  capsys):
    # every apriori_bound printed at row n bounds rho(b(x_m - x_n)) for every
    # later row m, judged as the backend judges an inequality
    config = GOLDEN / f"{name}.json"
    csv_path = tmp_path / "out.csv"
    main(["solve", "--config", str(config), "--backend", backend,
          "--out", str(csv_path)])
    out = capsys.readouterr().out
    assert re.search(r"^forward-orbit edges .*: ok$", out, re.M)
    cfg = load_config(config, backend)
    be, c = cfg.backend, cfg.constants
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    points = [tuple(be.number(v) for v in row[1:-2]) for row in rows]
    for n, row in enumerate(rows):
        if row[-1]:
            bound = be.number(row[-1])
            for m in range(n + 1, len(rows)):
                gap = rho_gap(cfg.spec, c.b, points[m], points[n])
                assert not be.violates(gap, bound), (n, m, gap, bound)


# repro's per-check timings vary from run to run; the golden text drops them
REPRO_MS_RE = re.compile(r" \[\d+ ms\]$", re.M)


def test_repro_stdout_matches_golden(capsys):
    code = main(["repro"])
    out = REPRO_MS_RE.sub("", capsys.readouterr().out)
    assert out == (GOLDEN / "repro.out").read_text()
    assert code == 0


# bounds at depth 120, where a bound term's float bits would show a running
# product in place of one power per index; the 7,260-row CSVs are pinned by
# sha256 rather than committed, the one-line stdout as text
DEEP_BOUNDS_DEPTH = 120
DEEP_BOUNDS_STDOUT = "bounds: 7260 rows, 0 negative-slack row(s) -> <out>\n"
DEEP_BOUNDS_CSV_SHA256 = {
    ("solve_banach_poset", "exact"):
        "9ffdd58eb4d7668adf36ca7ce3c725957b16445e3a7b6355227a0224478d6017",
    ("solve_banach_poset", "float"):
        "9769423ae6db0a92fd5292581a015c0b71bd40f05487f309787e923524b8ae01",
    ("solve_kannan_readme", "exact"):
        "61de04112b9dcd0d25735aeeaf777919db3cd1d78623c33a7402400987841d76",
    ("solve_kannan_readme", "float"):
        "86b5d34f9c5649cae3cef57ed8f44be8b3b3685bd9a58d6580840b88904ffc4b",
}


@pytest.mark.parametrize("name, backend", sorted(DEEP_BOUNDS_CSV_SHA256))
def test_deep_bounds_digests_pinned(name, backend, tmp_path, capsys):
    doc = json.loads((GOLDEN / f"{name}.json").read_text())
    doc["solve"]["bounds_depth"] = DEEP_BOUNDS_DEPTH
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    csv_path = tmp_path / "out.csv"
    argv = ["bounds", "--config", str(config), "--backend", backend,
            "--out", str(csv_path)]
    # the largest table: rows are streamed to the file, so the traced peak
    # stays below twice the CSV's size (a writer that joins the whole table
    # into one string holds it beside the rows, about 3.5x)
    if (name, backend) == ("solve_kannan_readme", "exact"):
        tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]  # 0 when not tracing
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out.replace(str(csv_path), OUT_PLACEHOLDER)
    assert code == 0
    assert out == DEEP_BOUNDS_STDOUT
    data = csv_path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEEP_BOUNDS_CSV_SHA256[(name, backend)]
    assert peak < 2 * len(data), (peak, len(data))
