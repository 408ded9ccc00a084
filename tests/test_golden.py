"""Golden stdout of ``modfix check``: byte-identical output on both backends.

The configs and their expected output live in ``tests/golden``.  The
expected text was produced by the code before the samplers learned to reuse
point-level values, so any refactor that changes a printed byte fails here.
"""

from pathlib import Path

import pytest

from modfix.cli import main

GOLDEN = Path(__file__).parent / "golden"

# config name -> expected exit code
CASES = {"check_builtin_banach": 0, "check_expr_kannan": 1}


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_check_stdout_matches_golden(name, backend, capsys):
    code = main(["check", "--config", str(GOLDEN / f"{name}.json"),
                 "--backend", backend])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.{backend}.out").read_text()
    assert code == CASES[name]
