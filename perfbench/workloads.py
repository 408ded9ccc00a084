"""Workloads: the configs each one runs, generated from the run seed.

A workload is a list of groups.  A group is one verb on one backend over
some of the workload's configs; one round of a group calls the verb once on
each of its configs, and each call is one sample of its config's time.  A
cycle runs ``rounds`` rounds of every group, interleaved, so that light
groups give several samples per cycle.  Every workload runs all four verbs so that every
end-to-end metric is measured on every workload; the heavy group of each
workload sets what it stresses.

The seed only reaches the program through ``samples.seed``: everything
else in a config is fixed, so two seeds give the same verdicts and
per-layer counts of the same size.

The configs are smaller than a one-shot profile would use, so that a run
holds many samples of each metric and no call outlasts the speed spells of
the shared host the benchmark was defined on by much (see ``rescaled`` in
run.py): single calls jitter by a tenth there, and a median needs numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction as F

SIZES = ("full", "tiny")

KANNAN_README = {"k": "64/81", "l": "16/81", "a1": "1/2", "a2": 1, "b": 1}


@dataclass(frozen=True)
class Group:
    verb: str            # check | solve | bounds | repro
    backend: str         # exact | float ("exact" for repro, which has no flag)
    configs: tuple       # config names; empty for repro
    rounds: int          # rounds per cycle at full size


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict        # name -> config document (JSON-ready)
    groups: tuple
    fixed_points: dict   # config name -> (known fixed point, coordinate atol)


@dataclass(frozen=True)
class KnownDefect:
    """A defect of the program that the benchmark counts as a failed
    operation, with the text that its failure reason must contain."""

    config: str
    verb: str
    backends: tuple
    signature: str
    reason: str


KNOWN_DEFECTS = (
    KnownDefect("kannan-readme", "bounds", ("exact", "float"),
                "negative-slack", "kannan_cauchy_bound is one power of "
                "delta too small: negative-slack rows from m = 70 on"),
    KnownDefect("growth", "solve", ("exact",), "integer string conversion",
                "cli._write_csv -> Backend.format exceeds the 4300-digit "
                "int-to-str limit once an iterate passes ~14k bits"),
)


def known_defect(config: str, verb: str, backend: str):
    for d in KNOWN_DEFECTS:
        if d.config == config and d.verb == verb and backend in d.backends:
            return d
    return None


def derive_seed(seed: int, workload: str, config: str) -> int:
    """samples.seed of one config, a 32-bit value derived from the run seed."""
    h = hashlib.sha256(f"{workload}/{config}/{seed}".encode()).digest()
    return int.from_bytes(h[:4], "big")


def _samples(seed, count, random_pairs, coeff_pairs, lo=-2, hi=2):
    return {"grid": {"min": lo, "max": hi, "count": count},
            "random_pairs": random_pairs, "coeff_pairs": coeff_pairs,
            "seed": seed}


def _check_builtin(seed, tiny):
    s = lambda c: derive_seed(seed, "check-builtin", c)
    configs = {
        "builtin": {
            "space": {"dimension": 2, "backend": "exact"},
            "modular": {"family": "weighted-power", "p": 2,
                        "weights": [1, "1/2"]},
            "map": {"affine": {"p": "1/3", "q": "1/5"}},
            "graph": {"kind": "poset"},
            "contraction": {"banach": {"k": "1/2", "a": "1/2", "b": 1}},
            "solve": {"x0": [1, 1], "tol": "1e-9",
                      "bounds_depth": 10 if tiny else 50},
            "samples": (_samples(s("builtin"), 3, 5, 2) if tiny
                        else _samples(s("builtin"), 6, 20, 4)),
        },
    }
    groups = (Group("check", "exact", ("builtin",), 2),
              Group("check", "float", ("builtin",), 3),
              Group("solve", "exact", ("builtin",), 10),
              Group("solve", "float", ("builtin",), 10),
              Group("bounds", "exact", ("builtin",), 2),
              Group("bounds", "float", ("builtin",), 5),
              Group("repro", "exact", (), 1))
    return Workload(
        "check-builtin",
        "check through the builtin weighted-power modular, an affine map "
        "and the poset predicate: many small exact values, no expressions",
        # The orbit's denominators are powers of 3 and the solver stops on
        # the step gap while the a-priori bound is still too wide to snap,
        # so the exact run ends near 3/10: within sqrt(2 tol), since rho is
        # a square with weights >= 1/2.
        configs, groups, {"builtin": ((F(3, 10), F(3, 10)), 4.5e-5)})


def _check_expr(seed, tiny):
    s = lambda c: derive_seed(seed, "check-expr", c)
    configs = {
        "expr": {
            "space": {"dimension": 1, "backend": "exact"},
            "modular": {"expr": "x^2", "convex": True},
            "map": {"expr": "piecewise(x = 1 -> 1/10, else -> 1/2)"},
            "graph": {"kind": "custom", "edge": "x <= y + 1"},
            "contraction": {"kannan": KANNAN_README},
            "solve": {"x0": 1, "tol": "1e-9",
                      "bounds_depth": 10 if tiny else 50},
            "samples": (_samples(s("expr"), 4, 10, 2) if tiny
                        else _samples(s("expr"), 32, 150, 8)),
        },
    }
    groups = (Group("check", "exact", ("expr",), 1),
              Group("check", "float", ("expr",), 3),
              Group("solve", "exact", ("expr",), 10),
              Group("solve", "float", ("expr",), 10),
              Group("bounds", "exact", ("expr",), 2),
              Group("bounds", "float", ("expr",), 5),
              Group("repro", "exact", (), 1))
    return Workload(
        "check-expr",
        "the same check through the expression layer: expression modular, "
        "piecewise map and custom edge, so expr and map reuse show here",
        configs, groups, {"expr": ((F(1, 2),), None)})


def _solve_bounds(seed, tiny):
    # The solve/bounds configs keep their full size even when tiny: the
    # known defects need depth >= 70 and ~14k-bit iterates to show.  Depth
    # 120 rather than 200 gives a run twice the samples; the Kannan table
    # still has 51 negative-slack rows.
    s = lambda c: derive_seed(seed, "solve-bounds", c)
    small = lambda c, lo=-2, hi=2: _samples(s(c), 9, 10, 8, lo, hi)
    configs = {
        "kannan-readme": {
            "space": {"dimension": 1, "backend": "exact"},
            "modular": {"family": "power", "p": 2},
            "map": {"piecewise": [{"when": "x = 1", "value": "1/10"},
                                  {"else": "1/2"}]},
            "graph": {"kind": "complete"},
            "contraction": {"kannan": KANNAN_README},
            "solve": {"x0": 1, "tol": "1e-9", "max_iter": 500,
                      "cf_depth": 20, "bounds_depth": 120},
            "samples": small("kannan-readme"),
        },
        "banach-linear": {
            "space": {"dimension": 1, "backend": "exact"},
            "modular": {"family": "abs-norm"},
            "map": {"affine": {"p": "1/3", "q": 0}},
            "graph": {"kind": "complete"},
            "contraction": {"banach": {"k": "2/3", "a": "1/2", "b": 1}},
            "solve": {"x0": 1, "tol": "1e-9", "bounds_depth": 120},
            "samples": small("banach-linear"),
        },
        # Denominator bits double every step; the Banach constants hold on
        # [0, 1], where the orbit and the samples stay.
        "growth": {
            "space": {"dimension": 1, "backend": "exact"},
            "modular": {"family": "abs-norm"},
            "map": {"expr": "x/3 + x^2/10"},
            "graph": {"kind": "poset"},
            "contraction": {"banach": {"k": "3/5", "a": "9/10", "b": 1}},
            "solve": {"x0": 1, "tol": "1e-7", "cf_depth": 15},
            "samples": small("growth", 0, 1),
        },
    }
    all3 = ("kannan-readme", "banach-linear", "growth")
    groups = (Group("check", "exact", all3, 1),
              Group("check", "float", all3, 3),
              Group("solve", "exact", all3, 2),
              Group("solve", "float", all3, 10),
              Group("bounds", "exact", ("kannan-readme", "banach-linear"), 2),
              Group("bounds", "float", ("kannan-readme", "banach-linear"), 3),
              Group("repro", "exact", (), 2))
    return Workload(
        "solve-bounds",
        "solve and bounds: long orbits, exact bit growth, 7k-row bound "
        "tables and CSV writing, with almost no sampling",
        configs, groups,
        {"kannan-readme": ((F(1, 2),), None), "banach-linear": ((F(0),), None),
         "growth": ((F(0),), None)})


BUILDERS = {"check-builtin": _check_builtin, "check-expr": _check_expr,
            "solve-bounds": _solve_bounds}


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in BUILDERS:
        raise KeyError(f"unknown workload {name!r} "
                       f"(known: {', '.join(sorted(BUILDERS))})")
    return BUILDERS[name](seed, size == "tiny")
