"""CLI end-to-end: exit codes, CSV contracts, backend resolution, repro."""

import copy
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modfix import (SelfMap, check_banach_condition, check_modular_axioms,
                    custom_modular)
from modfix.backend import EXACT, FLOAT
from modfix.cli import (_write_csv, build_coeff_sample, build_pair_sample,
                        build_point_sample, cmd_check, main)
from modfix.config import load_config
from modfix.graphs import has_edge, has_undirected_edge
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


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("graph", ["complete", "poset"])
@pytest.mark.parametrize("undirected", [False, True])
def test_check_evaluates_rho_and_maps_each_point_once(backend, graph,
                                                      undirected, write_config,
                                                      capsys):
    doc = copy.deepcopy(BANACH_DOC)
    doc["graph"] = {"kind": graph}
    doc["contraction"]["undirected"] = undirected
    doc["samples"]["coeff_pairs"] = 3
    cfg = load_config(write_config(doc), backend)
    rho_calls, map_calls = [], []
    cfg.spec = custom_modular(
        lambda pt: rho_calls.append(pt) or sum(abs(c) for c in pt),
        "counted", convex=True)
    inner = cfg.map
    cfg.map = SelfMap(lambda pt: map_calls.append(pt) or inner(pt), "counted")
    assert cmd_check(cfg) == 0
    assert "ok   convexity" in capsys.readouterr().out
    # the convex form reads the axiom sampler's values: rho is evaluated
    # only by the axiom sampler and the condition's gaps
    in_check = len(rho_calls)
    rho_calls.clear()
    check_modular_axioms(cfg.spec, build_point_sample(cfg),
                         build_coeff_sample(cfg), backend=cfg.backend)
    pairs = build_pair_sample(cfg)
    check_banach_condition(inner, cfg.spec, cfg.graph, cfg.constants, pairs,
                           use_undirected=undirected, backend=cfg.backend)
    assert in_check == len(rho_calls) > 0
    # one map call per distinct point of the condition's edge pairs
    edge = has_undirected_edge if undirected else has_edge
    on_edges = {p for x, y in pairs if edge(cfg.graph, x, y) for p in (x, y)}
    assert len(map_calls) == len(set(map_calls)) == len(on_edges)
    assert set(map_calls) == on_edges


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


def test_bad_env_backend_is_named_as_the_env(write_config, capsys, monkeypatch):
    cfg = write_config(BANACH_DOC)  # config says exact
    monkeypatch.setenv("MODFIX_BACKEND", "bogus")
    assert main(["check", "--config", cfg]) == 1
    assert capsys.readouterr().err == ("error: MODFIX_BACKEND: unknown backend "
                                       "'bogus' (expected 'exact' or 'float')\n")
    # the flag wins, so the variable is not read
    assert main(["check", "--config", cfg, "--backend", "exact"]) == 0
    # an empty value counts as unset: the config's exact backend prints "1"
    monkeypatch.setenv("MODFIX_BACKEND", "")
    capsys.readouterr()
    assert main(["check", "--config", cfg]) == 0
    assert "max lhs/rhs = 1\n" in capsys.readouterr().out


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


# every kind of cell the verbs write: the int index n (and m), the empty
# step_gap or apriori_bound, and numbers of either backend, which the
# reference prints with Backend.format; ints stay below the 4300-digit
# int-to-str limit, which both writers share
_BIG = 10 ** 3999 - 1
_cells = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
                     -2.2250738585072014e-308]),
    st.integers(min_value=-_BIG, max_value=_BIG),
    st.fractions(),
    st.builds(F, st.integers(min_value=-_BIG, max_value=_BIG),
              st.integers(min_value=1, max_value=_BIG)),
    st.just(""))


@given(be=st.sampled_from([EXACT, FLOAT]),
       table=st.integers(min_value=1, max_value=5).flatmap(
           lambda width: st.tuples(st.just(width), st.lists(
               st.lists(_cells, min_size=width, max_size=width), max_size=6))))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(be=FLOAT, table=(3, [[F(3, 7), "", F(-5, 2)],
                              [4, -0.0, 1e-05],
                              [float("inf"), float("nan"), -1.5e300]]))
def test_csv_writer_bytes_are_the_csv_modules(be, table, tmp_path):
    width, cells = table
    header = ["n"] + [f"c_{i}" for i in range(width)]
    rows = [[n, *row] for n, row in enumerate(cells)]
    ours = tmp_path / "ours.csv"
    _write_csv(str(ours), header, rows, be)
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, str) else be.format(c) for c in row])
    got = ours.read_bytes()
    assert got == ref.getvalue().encode()
    assert got.count(b"\r\n") == len(rows) + 1 and b'"' not in got


def test_invalid_builtin_modular_is_a_clean_error(write_config, capsys):
    doc = {**BANACH_DOC, "modular": {"family": "power", "p": 0}}
    assert main(["check", "--config", write_config(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: modular: exponent must be")


SOLVE = BANACH_DOC["solve"]


@pytest.mark.parametrize("block, value, path", [
    ("solve", {**SOLVE, "cf_depth": 1414}, "solve.cf_depth"),
    ("solve", {**SOLVE, "cf_depth": 100000}, "solve.cf_depth"),
    ("solve", {**SOLVE, "max_iter": 10 ** 6 + 1}, "solve.max_iter"),
    ("solve", {**SOLVE, "max_iter": 10 ** 9}, "solve.max_iter"),
    ("modular", {"family": "abs-norm", "p": 2}, "modular"),
    ("modular", {"family": "power", "p": 2, "weights": [5]}, "modular"),
    ("modular", {"expr": "x^2", "family": "abs-norm"}, "modular"),
    ("graph", {"kind": "complete", "order": "x <= y"}, "graph"),
    ("graph", {"kind": "poset", "edge": "x <= y"}, "graph"),
    ("graph", {"kind": "custom", "edge": "x <= y", "order": "x <= y"}, "graph"),
] + [("map", {"piecewise": [branch, {"else": 1}]}, "map.piecewise[0]")
     for branch in (None, 1, 1.5, True)])
def test_capped_sizes_and_variant_keys_are_clean_errors(block, value, path,
                                                        write_config, capsys):
    doc = {**BANACH_DOC, block: value}
    assert main(["check", "--config", write_config(doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("block, value, message", [
    ("graph", {"kind": "poset", "order": None},
     "graph.order: expected an expression string, got None"),
    ("samples", {"seed": None}, "samples.seed: expected an integer >= 0, got None"),
    ("samples", {"grid": {"min": -1, "max": 1, "count": 1},
                 "random_pairs": 999999, "coeff_pairs": 10 ** 6, "seed": 1},
     "samples: 2000008999995 coordinates in sampler checks (1999999 points "
     "x 1 coordinates x 1000005 coefficient pairs) is above the cap of 1000000"),
])
def test_null_values_and_sampler_work_are_clean_errors(block, value, message,
                                                       write_config, capsys):
    doc = {**BANACH_DOC, block: value}
    assert main(["check", "--config", write_config(doc)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and "Traceback" not in err


def test_repro_exits_zero(capsys):
    assert main(["repro"]) == 0
    out = capsys.readouterr().out
    assert "banach-example-identity" in out
    assert "FAIL" not in out


def test_python_dash_m_runs_the_cli():
    from modfix.repro import REPRO_CHECKS
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "modfix", "repro"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == \
        f"all checks reproduced exactly ({len(REPRO_CHECKS)} total)"


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
