"""The traced benchmark binds program functions by name: keep them there."""

import importlib
import importlib.util
import inspect
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
