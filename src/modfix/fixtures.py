"""Canonical experiments used by the reproduction harness and tests.

Each worked example is an embedded config document, loaded by
``load_config`` on the given backend like any config file:

* ``banach_linear``: f(x) = x/3 on the line under rho(x) = |x| with the
  complete graph; displacement constants (2/3, 1/2, 1) hold with equality,
  and no admissible self-displacement tuple works (probe pairs (x, 0)).
* ``kannan_piecewise``: the two-valued map f(x) = 1/2 for x != 1, f(1) = 1/10
  under rho(x) = x^2; self-displacement constants (64/81, 16/81, 1/2, 1, 1)
  hold, and no admissible displacement triple works (probe the pair (1, 3/5)).
* ``isometry``: a unit translation with formally admissible displacement
  constants; step gaps never shrink, exercising the non-convergence path.
* ``kannan_small_k``: a near-constant spike map that satisfies the
  self-displacement condition with k = 1/4 < 1/2, so the uniqueness decay
  bound applies with lambda = 1/3.
"""

from __future__ import annotations

from .backend import EXACT, Backend
from .config import ExperimentConfig, load_config


def banach_linear(backend: Backend = EXACT) -> ExperimentConfig:
    return load_config({
        "space": {"dimension": 1}, "graph": {"kind": "complete"},
        "modular": {"family": "abs-norm"},
        "map": {"affine": {"p": "1/3", "q": 0}},
        "contraction": {"banach": {"k": "2/3", "a": "1/2", "b": 1}},
        "solve": {"x0": 1, "tol": "1e-9"}}, backend.name)


def kannan_piecewise(backend: Backend = EXACT) -> ExperimentConfig:
    return load_config({
        "space": {"dimension": 1}, "graph": {"kind": "complete"},
        "modular": {"family": "power", "p": 2},
        "map": {"piecewise": [{"when": "x = 1", "value": "1/10"},
                              {"else": "1/2"}]},
        "contraction": {"kannan": {"k": "64/81", "l": "16/81", "a1": "1/2",
                                   "a2": 1, "b": 1}},
        "solve": {"x0": 1, "tol": "1e-9"}}, backend.name)


def isometry(backend: Backend = EXACT) -> ExperimentConfig:
    """Unit translation: |fx - fy| = |x - y|, so the orbit never settles.

    The attached constants are formally admissible but do not describe the
    map; the solver must end in a structured non-convergence."""
    return load_config({
        "space": {"dimension": 1}, "graph": {"kind": "complete"},
        "modular": {"family": "abs-norm"},
        "map": {"affine": {"p": 1, "q": 1}},
        "contraction": {"banach": {"k": "99/100", "a": "1/2", "b": 1}},
        "solve": {"x0": 0, "tol": "1e-9"}}, backend.name)


def kannan_small_k(backend: Backend = EXACT) -> ExperimentConfig:
    """Spike map f(x) = 1/100 at x = 1, else 0, under rho(x) = x^2.

    Self-displacement condition holds with (1/4, 1/2, 1/2, 1, 1): away from
    the spike both images agree, and at the spike the right-hand side
    dominates because the spike point moves a long way.  k = 1/4 < 1/2 makes
    the uniqueness decay bound applicable with lambda = 1/3."""
    return load_config({
        "space": {"dimension": 1}, "graph": {"kind": "complete"},
        "modular": {"family": "power", "p": 2},
        "map": {"piecewise": [{"when": "x = 1", "value": "1/100"},
                              {"else": 0}]},
        "contraction": {"kannan": {"k": "1/4", "l": "1/2", "a1": "1/2",
                                   "a2": 1, "b": 1}},
        "solve": {"x0": 3, "tol": "1e-9"}}, backend.name)
