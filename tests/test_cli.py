"""CLI end-to-end: exit codes, CSV contracts, backend resolution, repro."""

import copy
import csv
import json
import os
from fractions import Fraction as F
from pathlib import Path

import pytest

from modfix.backend import FLOAT
from modfix.cli import _write_csv, main
from modfix.repro import check_kannan_example_cases, run_repro

BANACH_DOC = {
    "space": {"dimension": 1, "backend": "exact"},
    "modular": {"family": "abs-norm"},
    "map": {"expr": "x/3"},
    "graph": {"kind": "complete"},
    "contraction": {"banach": {"k": "2/3", "a": "1/2", "b": 1}},
    "solve": {"x0": 1, "tol": "1e-9", "max_iter": 200, "bounds_depth": 15},
    "samples": {"grid": {"min": -2, "max": 2, "count": 9},
                "random_pairs": 10, "seed": 7},
}

KANNAN_DOC = {
    "space": {"dimension": 1, "backend": "exact"},
    "modular": {"family": "power", "p": 2},
    "map": {"piecewise": [{"when": "x = 1", "value": "1/10"},
                          {"else": "1/2"}]},
    "graph": {"kind": "complete"},
    "contraction": {"kannan": {"k": "64/81", "l": "16/81", "a1": "1/2",
                               "a2": 1, "b": 1}},
    "solve": {"x0": 1, "tol": "1e-9", "bounds_depth": 12},
    "samples": {"grid": {"min": -1, "max": 3, "count": 9}, "seed": 3},
}


# The README's Kannan config, deep enough (n = 1, m >= 70) that a bound one
# power of delta too small shows negative slack.
README_KANNAN_DOC = copy.deepcopy(KANNAN_DOC)
README_KANNAN_DOC["solve"] = {"x0": 1, "tol": "1e-9", "max_iter": 500,
                              "cf_depth": 20, "bounds_depth": 200}
README_KANNAN_DOC["samples"] = {"grid": {"min": -2, "max": 2, "count": 9},
                                "random_pairs": 10, "coeff_pairs": 8,
                                "seed": 7}


@pytest.fixture
def write_config(tmp_path):
    def _write(doc, name="config.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return _write


def test_check_passes_on_banach_document(write_config, capsys):
    assert main(["check", "--config", write_config(BANACH_DOC)]) == 0
    out = capsys.readouterr().out
    assert "banach-condition" in out and "result: ok" in out


def test_check_reports_violations_with_witness(write_config, capsys):
    doc = copy.deepcopy(BANACH_DOC)
    doc["contraction"] = {"kannan": {"k": "1/3", "l": "1/3", "a1": "1/4",
                                     "a2": "1/2", "b": 1}}
    del doc["solve"]
    assert main(["check", "--config", write_config(doc)]) == 1
    out = capsys.readouterr().out
    assert "FAIL kannan-condition" in out and "witness" in out


def test_solve_writes_trace_and_prints_certificate(write_config, tmp_path, capsys):
    out_csv = str(tmp_path / "trace.csv")
    code = main(["solve", "--config", write_config(BANACH_DOC),
                 "--out", out_csv])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fixed point: ('0',)" in stdout
    assert "residual rho((b/2)(fx*-x*)): 0" in stdout
    lines = Path(out_csv).read_text().splitlines()
    assert lines[0] == "n,x_0,step_gap,apriori_bound"
    assert lines[1].startswith("0,1,,")  # no step gap on the start row
    assert lines[2].split(",")[1] == "1/3"


def test_solve_kannan_trace_rows(write_config, tmp_path):
    out_csv = str(tmp_path / "k.csv")
    assert main(["solve", "--config", write_config(KANNAN_DOC),
                 "--out", out_csv]) == 0
    rows = [l.split(",") for l in Path(out_csv).read_text().splitlines()]
    assert [r[1] for r in rows[1:]] == ["1", "1/10", "1/2", "1/2"]
    assert rows[2][2] == "81/100" and rows[3][2] == "4/25" and rows[4][2] == "0"


def test_solve_nonconvergence_exit_code(write_config, tmp_path):
    doc = copy.deepcopy(BANACH_DOC)
    doc["map"] = {"affine": {"p": 1, "q": 1}}
    doc["contraction"] = {"banach": {"k": "99/100", "a": "1/2", "b": 1}}
    doc["solve"]["max_iter"] = 50
    code = main(["solve", "--config", write_config(doc),
                 "--out", str(tmp_path / "iso.csv")])
    assert code == 2


def test_bounds_all_slack_nonnegative(write_config, tmp_path):
    for doc in (BANACH_DOC, KANNAN_DOC, README_KANNAN_DOC):
        out_csv = str(tmp_path / "b.csv")
        assert main(["bounds", "--config", write_config(doc),
                     "--out", out_csv]) == 0
        lines = Path(out_csv).read_text().splitlines()
        assert lines[0] == "n,m,actual_gap,bound,slack"
        assert len(lines) > 1


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_bounds_counts_negative_slack_rows(backend, write_config, tmp_path,
                                           capsys):
    # x + 1 moves every point by 1, so no contraction bound can hold
    doc = copy.deepcopy(BANACH_DOC)
    doc["map"] = {"expr": "x + 1"}
    doc["contraction"] = {"banach": {"k": "1/2", "a": "1/2", "b": 1}}
    doc["solve"] = {"x0": 0, "tol": "1e-9", "bounds_depth": 10}
    out_csv = str(tmp_path / "b.csv")
    assert main(["bounds", "--config", write_config(doc), "--backend", backend,
                 "--out", out_csv]) == 1
    out = capsys.readouterr().out
    assert out.startswith("bounds: 55 rows, 44 negative-slack row(s)")


def test_csv_outputs_bit_identical_across_runs(write_config, tmp_path):
    cfg = write_config(BANACH_DOC)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["solve", "--config", cfg, "--out", a]) == 0
    assert main(["solve", "--config", cfg, "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_backend_flag_beats_env_and_config(write_config, capsys, monkeypatch):
    cfg = write_config(BANACH_DOC)  # config says exact
    monkeypatch.setenv("MODFIX_BACKEND", "exact")
    assert main(["check", "--config", cfg, "--backend", "float"]) == 0
    # float arithmetic shows in the reported ratio; exact would print "1"
    assert "max lhs/rhs = 1.0" in capsys.readouterr().out


def test_env_backend_beats_config(write_config, capsys, monkeypatch):
    cfg = write_config(BANACH_DOC)
    monkeypatch.setenv("MODFIX_BACKEND", "float")
    assert main(["solve", "--config", cfg,
                 "--out", os.devnull]) == 0
    assert "backend: float" in capsys.readouterr().out


def test_config_errors_are_clean(write_config, capsys):
    doc = copy.deepcopy(BANACH_DOC)
    doc["contraction"]["banach"]["k"] = "3/2"
    assert main(["check", "--config", write_config(doc)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "contraction.banach" in err


def test_missing_config_file_is_clean(capsys):
    assert main(["check", "--config", "/no/such/file.json"]) == 1
    assert "cannot read config file" in capsys.readouterr().err


FLOAT_HUGE_DOC = copy.deepcopy(BANACH_DOC)
FLOAT_HUGE_DOC["space"]["backend"] = "float"
FLOAT_HUGE_DOC["modular"] = {"family": "power", "p": 2}
FLOAT_HUGE_DOC["samples"]["grid"] = {"min": -1e200, "max": 1e200, "count": 3}


@pytest.mark.parametrize("verb, change", [
    ("check", {}),
    ("solve", {"solve": {"x0": 1e200, "tol": "1e-9"}}),
    ("check", {"modular": {"expr": "x^2"}}),
    ("check", {"modular": {"family": "abs-norm"}, "map": {"expr": "x^2"}}),
    ("solve", {"modular": {"family": "abs-norm"}, "map": {"expr": "x^2"},
               "solve": {"x0": 1e200, "tol": "1e-9"}}),
    # config numbers beyond double range
    ("solve", {"solve": {"x0": "1e400", "tol": "1e-9"}}),
    ("check", {"solve": {"x0": "-1e400", "tol": "1e-9"}}),
])
def test_float_overflow_is_a_clean_error(verb, change, write_config, tmp_path,
                                         capsys):
    doc = {**FLOAT_HUGE_DOC, **change}
    args = [verb, "--config", write_config(doc)]
    if verb == "solve":
        args += ["--out", str(tmp_path / "trace.csv")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err


@pytest.mark.parametrize("verb", ["solve", "bounds"])
def test_negative_seed_is_a_clean_error(verb, write_config, tmp_path, capsys):
    # rho = -x^2 is negative at the seed gap, so no bound follows from it
    doc = {**BANACH_DOC, "modular": {"expr": "0 - x^2"}}
    args = [verb, "--config", write_config(doc), "--out", str(tmp_path / "t.csv")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be nonnegative" in err


@pytest.mark.parametrize("verb", ["solve", "bounds"])
def test_table_verbs_need_a_solve_block(verb, write_config, tmp_path, capsys):
    doc = {k: v for k, v in BANACH_DOC.items() if k != "solve"}
    args = [verb, "--config", write_config(doc), "--out", str(tmp_path / "t.csv")]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: config has no solve block\n"


@pytest.mark.parametrize("verb", ["solve", "bounds"])
def test_unwritable_out_is_a_clean_error(verb, write_config, tmp_path, capsys):
    out = tmp_path / "missing" / "t.csv"
    assert main([verb, "--config", write_config(BANACH_DOC), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


def test_csv_writer_bytes_are_the_csv_modules(tmp_path):
    # every kind of field the verbs write: str(n), the empty step_gap of row
    # 0, signed Fractions, an int, and floats the backend prints with repr
    header = ["n", "x_0", "step_gap", "apriori_bound"]
    rows = [["0", F(3, 7), "", F(-5, 2)],
            ["1", 4, -0.0, 1e-05],
            ["12", float("inf"), float("nan"), -1.5e300]]
    ours = tmp_path / "ours.csv"
    _write_csv(str(ours), header, rows, FLOAT)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else FLOAT.format(c) for c in row])
    assert ours.read_bytes() == ref.read_bytes()
    assert ours.read_bytes().count(b"\r\n") == 4 and b'"' not in ours.read_bytes()


def test_invalid_builtin_modular_is_a_clean_error(write_config, capsys):
    doc = {**BANACH_DOC, "modular": {"family": "power", "p": 0}}
    assert main(["check", "--config", write_config(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: modular: exponent must be")


def test_repro_exits_zero(capsys):
    assert main(["repro"]) == 0
    out = capsys.readouterr().out
    assert "banach-example-identity" in out
    assert "FAIL" not in out


def test_repro_mutation_detected():
    # an injected wrong constant must fail at the example-case replay
    from fractions import Fraction as F
    ok, detail = check_kannan_example_cases(k=F(63, 81))
    assert not ok and "case-2" in detail


def test_run_repro_emits_one_line_per_check():
    lines = []
    assert run_repro(emit=lines.append) == 0
    from modfix.repro import REPRO_CHECKS
    assert len(lines) == len(REPRO_CHECKS) + 1  # plus the summary line
