"""The traced benchmark binds program functions by name: keep them there."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from modfix import cli
from modfix.backend import Backend

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _tracer()
    for modname, attr, _ in tracer.TARGETS:
        module = importlib.import_module(f"modfix.{modname}")
        assert callable(getattr(module, attr, None)), f"modfix.{modname}.{attr}"
    for attr, _ in tracer.METHODS:
        assert callable(Backend.__dict__.get(attr)), f"Backend.{attr}"


def test_write_csv_takes_the_four_arguments_the_tracer_unpacks():
    # the tracer reads (path, header, rows, backend) from the positional call
    params = inspect.signature(cli._write_csv).parameters.values()
    assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * 4


TINY_DOC = {
    "space": {"dimension": 1, "backend": "exact"},
    "modular": {"family": "abs-norm"},
    "map": {"expr": "x/3"},
    "graph": {"kind": "poset"},
    "contraction": {"banach": {"k": "2/3", "a": "1/2", "b": 1}},
    "solve": {"x0": 1, "tol": "1e-9", "max_iter": 50, "cf_depth": 4,
              "bounds_depth": 4},
    "samples": {"grid": {"min": -1, "max": 1, "count": 3}},
}

# every count the tracer reads from a result (a config, sample, report,
# orbit, certificate or CSV call)
RESULT_COUNTS = {"sampling.points", "sampling.pairs", "solver.cf_pairs",
                 "solver.peak_bits", "solver.iterations", "cli.csv_rows",
                 "cli.csv_bytes", "contractions.map_calls",
                 "contractions.map_distinct_points", "graphs.edge_tests",
                 "graphs.edge_hits"}


def test_traced_verbs_record_every_result_count(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_DOC))
    main = cli.main
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        for verb in ("check", "solve", "bounds"):
            args = [verb, "--config", str(config)]
            if verb != "check":
                args += ["--out", str(tmp_path / f"{verb}.csv")]
            assert cli.main(args) == 0
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert set(tracer.counts) == RESULT_COUNTS
    assert all(v > 0 for v in tracer.counts.values()), dict(tracer.counts)


def test_traced_repro_counts_the_fixtures_map_calls(capsys):
    # the worked examples are config documents, so each fixture's map reaches
    # the tracer through load_config, like a config file's
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(["repro"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.ncalls("config.load_config") == 10
    assert tracer.counts["contractions.map_calls"] > 0
    assert tracer.counts["contractions.map_distinct_points"] > 0
