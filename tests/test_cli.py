"""CLI end-to-end: exit codes, CSV contracts, backend resolution, repro."""

import copy
import json
import os

import pytest

from modfix.cli import main
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
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "n,x_0,step_gap,apriori_bound"
    assert lines[1].startswith("0,1,,")  # no step gap on the start row
    assert lines[2].split(",")[1] == "1/3"


def test_solve_kannan_trace_rows(write_config, tmp_path):
    out_csv = str(tmp_path / "k.csv")
    assert main(["solve", "--config", write_config(KANNAN_DOC),
                 "--out", out_csv]) == 0
    rows = [l.split(",") for l in open(out_csv).read().splitlines()]
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
        lines = open(out_csv).read().splitlines()
        assert lines[0] == "n,m,actual_gap,bound,slack"
        assert len(lines) > 1


def test_csv_outputs_bit_identical_across_runs(write_config, tmp_path):
    cfg = write_config(BANACH_DOC)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["solve", "--config", cfg, "--out", a]) == 0
    assert main(["solve", "--config", cfg, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


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
