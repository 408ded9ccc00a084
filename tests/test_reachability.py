"""Reach or list: every function in ``src/modfix`` that no CLI verb runs.

The guard traces ``cli.main`` running ``check``, ``solve`` and ``bounds`` on
every golden config on both backends, plus ``repro``, and records the code
object of every call.  Each ``def`` in the package (methods and nested
functions included) that no call entered must be listed in ``UNREACHED`` with
a one-word reason:

* ``library``: a public name kept for library callers;
* ``error-path``: a raise or fallback that no golden config takes;
* ``item-N``: the open ROADMAP item that will give it a verb.

The test fails in both directions: on a function that is unreached and not
listed (code that no verb runs), and on a listed function that a verb now
reaches (wired code still on the list).

Functions are named by module and qualified name, built from the source's
AST (``co_qualname`` is new in Python 3.11), and matched to code objects by
file, first line and name; a decorated function's code starts at its first
decorator.
"""

import ast
import re
import sys
from pathlib import Path

import modfix
from modfix.cli import main

SRC = Path(modfix.__file__).parent
GOLDEN = Path(__file__).parent / "golden"

# (module, qualified name) -> reason
UNREACHED = {
    ("config", "config_to_dict"): "library",
    ("contractions", "KannanConstants.uniqueness_rate"): "item-8",
    ("contractions", "estimate_banach_k"): "item-7",
    ("errors", "ConfigError.__init__"): "error-path",
    ("errors", "ExprError.__init__"): "error-path",
    ("expr", "eval_expr"): "library",
    ("fixtures", "isometry"): "item-8",
    ("fixtures", "kannan_small_k"): "item-8",
    ("graphs", "OrbitLimitReport.subsequence_found"): "item-3",
    ("graphs", "Path.__post_init__"): "item-8",
    ("graphs", "Path.length"): "item-8",
    ("graphs", "check_property_star_on_orbit"): "item-3",
    ("graphs", "find_undirected_path"): "item-8",
    ("graphs", "validate_path"): "item-8",
    ("modular", "_abs_pow"): "error-path",
    ("solver", "kannan_cauchy_bound"): "library",
    ("solver", "kannan_tail_bound"): "library",
    ("solver", "verify_uniqueness_banach"): "item-8",
    ("solver", "verify_uniqueness_kannan"): "item-8",
}

REASON = re.compile(r"library|error-path|item-\d+")


def _defs() -> dict:
    """(file, first line, name) -> (module, qualified name, def line) for
    every def in the package; the first line is the first decorator's when
    there is one, as in ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found[(str(path), first, child.name)] = (
                    path.stem, qualname, child.lineno)
                walk(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def _run_every_verb(out: Path) -> None:
    for config in sorted(GOLDEN.glob("*.json")):
        for backend in ("exact", "float"):
            main(["check", "--config", str(config), "--backend", backend])
            for verb in ("solve", "bounds"):
                main([verb, "--config", str(config), "--backend", backend,
                      "--out", str(out)])
    main(["repro"])


def _reached(out: Path) -> set:
    """(file, first line, name) of every code object a verb entered."""
    codes = set()

    def trace(frame, event, arg, add=codes.add):
        add(frame.f_code)  # returns None: calls only, no line events

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _run_every_verb(out)
    finally:
        sys.settrace(previous)
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}


def _where(key, defs) -> str:
    module, qualname, line = defs[key]
    return f"{SRC.name}/{module}.py:{line} {qualname}"


def test_unreached_functions_are_pinned(tmp_path, capsys):
    defs = _defs()
    reached = _reached(tmp_path / "out.csv")
    capsys.readouterr()  # the verbs' own output is not under test here
    by_name = {defs[key][:2]: key for key in defs}
    unreached = {defs[key][:2] for key in defs if key not in reached}
    listed = set(UNREACHED)
    problems = (
        [f"unreached, not listed: {_where(by_name[n], defs)}"
         for n in sorted(unreached - listed)]
        + [f"listed, now reached: {_where(by_name[n], defs)}"
           for n in sorted((listed & set(by_name)) - unreached)]
        + [f"listed, not defined: {'.'.join(n)}"
           for n in sorted(listed - set(by_name))])
    assert not problems, "\n".join(problems)


def test_every_reason_is_one_word_of_the_list():
    bad = {name: why for name, why in UNREACHED.items()
           if not REASON.fullmatch(why)}
    assert not bad
    library = {name for (_, name), why in UNREACHED.items() if why == "library"}
    assert library <= set(modfix.__all__)


def test_public_names_are_pinned():
    # the 83 names of the package, with the submodules dir() picks up
    assert sorted(modfix.__all__) == [
        "AdmissibilityError", "AxiomReport", "BANACH_RESCALE_RULE", "Backend",
        "BanachConstants", "CfReport", "ConfigError", "ContractionReport",
        "ConvergenceCertificate", "DimensionMismatchError", "EXACT",
        "ExperimentConfig", "ExprError", "FLOAT", "KANNAN_RESCALE_RULE",
        "KannanConstants", "ModfixError", "ModularSpec", "NonFiniteError",
        "Number", "OrbitTrace", "PairViolation", "Path", "PathUniquenessBound",
        "Point", "SelfMap", "SpaceGraph", "SplitMix64", "UniquenessEvidence",
        "Violation", "abs_norm", "affine_map", "as_point", "backend",
        "banach_apriori_bound", "check_banach_condition",
        "check_cf_membership", "check_convexity", "check_edge_preservation",
        "check_kannan_condition", "check_modular_axioms",
        "check_property_star_on_orbit", "check_star_condition", "config",
        "config_to_dict", "constant_map", "contractions",
        "convex_rescale_banach", "convex_rescale_kannan", "custom_modular",
        "errors", "estimate_banach_k", "eval_expr", "eval_modular", "expr",
        "find_undirected_path", "get_backend", "graphs", "has_edge",
        "has_undirected_edge", "infer_backend", "is_weakly_connected_on",
        "kannan_cauchy_bound", "kannan_tail_bound", "load_config",
        "make_complete", "make_custom", "make_poset", "modular",
        "parse_expression", "parse_predicate", "picard_orbit", "power",
        "rho_gap", "sampling", "scalar_map", "simplest_rational_in",
        "solve_banach", "solve_kannan", "solver", "verify_uniqueness_banach",
        "verify_uniqueness_kannan", "weighted_power"]
