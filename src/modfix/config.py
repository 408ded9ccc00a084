"""Experiment configuration: strict JSON ingestion and normalization.

The accepted document shape (unknown keys are rejected everywhere, and so is
a key the chosen variant does not take; numbers may be written as JSON
numbers or as exact strings like "64/81" or "1e-9"):

    {
      "space":       {"dimension": 1, "backend": "exact"},
      "modular":     {"family": "power", "p": 2, "convex": true}
                     | {"family": "weighted-power", "p": 2, "weights": [...]}
                     | {"family": "abs-norm"} | {"expr": "x^2", "convex": true},
      "map":         {"affine": {"p": "1/3", "q": 0}}
                     | {"piecewise": [{"when": "x = 1", "value": "1/10"},
                                      {"else": "1/2"}]}
                     | {"expr": "x/3"},
      "graph":       {"kind": "complete"}
                     | {"kind": "poset", "order": "x <= y"?}
                     | {"kind": "custom", "edge": "x + 1 <= y"},
      "contraction": {"banach": {"k": .., "a": .., "b": ..},
                      "undirected": false}
                     | {"kannan": {"k": .., "l": .., "a1": .., "a2": .., "b": ..},
                        "undirected": false},
      "solve":       {"x0": 1 | [..], "tol": "1e-9", "max_iter": 500,
                      "cf_depth": 20, "bounds_depth": 50},           # optional
      "samples":     {"grid": {"min": -2, "max": 2, "count": 9},
                      "random_pairs": 0, "coeff_pairs": 0, "seed": 1} # optional
    }

Expression-based maps, modulars and predicates are one-dimensional, and
``load_config`` compiles each once, bound to the backend.  A seed is
required whenever random sampling is requested, and a ``null`` is a value
like any other, never an absent key.  The pair sample (count^(2 dim) grid
pairs plus the random pairs), the samplers' work (count^dim + 2 random_pairs
points times the canonical and random coefficient pairs), the bounds table
and the cf check (depth (depth + 1) / 2 rows or pairs each) and ``max_iter``
may each reach at most ``MAX_SAMPLE_PAIRS``.  ``config_to_dict`` emits the
normalized form, so parse -> serialize is idempotent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path as FsPath
from typing import Optional

from .backend import Backend, get_backend
from .contractions import (BanachConstants, KannanConstants, SelfMap,
                           affine_map)
from .errors import AdmissibilityError, ConfigError, ExprError, NonFiniteError
from .expr import Num, Piecewise, _lower, parse_expression, parse_predicate
from .graphs import SpaceGraph, make_complete, make_custom, make_poset
from .modular import ModularSpec, abs_norm, custom_modular, power, weighted_power
from .sampling import canonical_coeff_pairs


@dataclass
class SolveSettings:
    x0: tuple
    tol: object
    max_iter: int
    cf_depth: int
    bounds_depth: int


@dataclass
class SampleSettings:
    grid_min: object
    grid_max: object
    grid_count: int
    random_pairs: int
    coeff_pairs: int
    seed: Optional[int]


@dataclass
class ExperimentConfig:
    backend: Backend
    dimension: int
    spec: ModularSpec
    map: SelfMap
    graph: SpaceGraph
    constants: BanachConstants | KannanConstants  # its ``mode`` is the family
    undirected: bool
    solve: Optional[SolveSettings]
    samples: SampleSettings
    normalized: dict


def _check_keys(obj: dict, path: str, allowed) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(path, f"unknown key {key!r} "
                                    f"(allowed: {', '.join(sorted(allowed))})")


def _get(obj: dict, path: str, key: str):
    if key not in obj:
        raise ConfigError(path, f"missing required key {key!r}")
    return obj[key]


def _number(be: Backend, value, path: str):
    try:
        return be.number(value)
    except (ValueError, TypeError, ZeroDivisionError, NonFiniteError) as e:
        raise ConfigError(path, f"bad number {value!r}: {e}") from None


def _int(value, path: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def _bool(obj: dict, path: str, key: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}", f"expected true or false, got {value!r}")
    return value


def _unique_keys(pairs: list) -> dict:
    # json.loads hook: a repeated key would otherwise silently win
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError("", f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _compile(src, path: str, parse, variables=("x",)):
    """Parse an expression or predicate source; errors carry ``path``."""
    if not isinstance(src, str):
        raise ConfigError(path, f"expected an expression string, got {src!r}")
    try:
        return parse(src, variables=variables)
    except ExprError as e:
        raise ConfigError(path, str(e)) from None


def _predicate(be: Backend, src, path: str, dimension: int):
    if dimension != 1:
        raise ConfigError(path, "expression predicates are one-dimensional")
    edge = _lower(_compile(src, path, parse_predicate, ("x", "y")), be)
    return lambda x, y: bool(edge({"x": x[0], "y": y[0]}))


def _exponent(be: Backend, obj, path: str):
    p = _number(be, _get(obj, path, "p"), f"{path}.p")
    if be.name == "exact" and p.denominator != 1:
        # |x|^p for a fractional p has no exact rational value
        raise ConfigError(f"{path}.p", "the exact backend needs an integer "
                                       f"exponent, got {be.format(p)}")
    return p


def _parse_modular(be: Backend, obj, dimension: int) -> tuple:
    path = "modular"
    _check_keys(obj, path, {"family", "p", "weights", "convex", "expr"})
    if "expr" in obj:
        _check_keys(obj, path, {"expr", "convex"})
        if dimension != 1:
            raise ConfigError(path, "expression modulars are one-dimensional")
        src = obj["expr"]
        rho = _lower(_compile(src, f"{path}.expr", parse_expression), be)
        convex = _bool(obj, path, "convex", False)
        spec = custom_modular(lambda pt: rho({"x": pt[0]}), src, convex)
        norm = {"expr": src, "convex": convex}
        return spec, norm
    family = _get(obj, path, "family")
    convex = _bool(obj, path, "convex", True)
    try:
        if family == "abs-norm":
            _check_keys(obj, path, {"family", "convex"})
            spec = abs_norm()
            norm = {"family": "abs-norm", "convex": convex}
        elif family == "power":
            _check_keys(obj, path, {"family", "p", "convex"})
            p = _exponent(be, obj, path)
            spec = power(p)
            norm = {"family": "power", "p": be.format(p), "convex": convex}
        elif family == "weighted-power":
            p = _exponent(be, obj, path)
            raw_w = _get(obj, path, "weights")
            if not isinstance(raw_w, list) or len(raw_w) != dimension:
                raise ConfigError(f"{path}.weights",
                                  f"expected a list of {dimension} weights")
            weights = tuple(_number(be, w, f"{path}.weights[{i}]")
                            for i, w in enumerate(raw_w))
            spec = weighted_power(p, weights)
            norm = {"family": "weighted-power", "p": be.format(p),
                    "weights": [be.format(w) for w in weights], "convex": convex}
        else:
            raise ConfigError(f"{path}.family", f"unknown family {family!r}")
    except ValueError as e:  # ModularSpec rejects the exponent or a weight
        raise ConfigError(path, str(e)) from None
    return replace(spec, convex=convex), norm


def _parse_map(be: Backend, obj, dimension: int) -> tuple:
    path = "map"
    _check_keys(obj, path, {"affine", "piecewise", "expr"})
    given = [k for k in ("affine", "piecewise", "expr") if k in obj]
    if len(given) != 1:
        raise ConfigError(path, "give exactly one of 'affine', 'piecewise', 'expr'")
    kind = given[0]
    if kind == "affine":
        sub = obj["affine"]
        _check_keys(sub, f"{path}.affine", {"p", "q"})
        p = _number(be, _get(sub, f"{path}.affine", "p"), f"{path}.affine.p")
        q = _number(be, _get(sub, f"{path}.affine", "q"), f"{path}.affine.q")
        return (affine_map(p, q),
                {"affine": {"p": be.format(p), "q": be.format(q)}})
    if dimension != 1:
        raise ConfigError(path, f"{kind} maps are one-dimensional")
    if kind == "expr":
        description = obj["expr"]
        ast = _compile(description, f"{path}.expr", parse_expression)
        norm = {"expr": description}
    else:
        ast, norm = _parse_piecewise(be, obj["piecewise"], f"{path}.piecewise")
        description = "piecewise-constant"
    f = _lower(ast, be)
    return SelfMap(lambda pt: (f({"x": pt[0]}),), description), norm


def _parse_piecewise(be: Backend, branches, path: str) -> tuple:
    """Lower the JSON branch list to the expression language's Piecewise
    node, so it evaluates exactly like ``piecewise(...)`` in an expression."""
    if not isinstance(branches, list) or not branches:
        raise ConfigError(path, "expected a nonempty list of branches")
    lowered = []
    norm = []
    for i, br in enumerate(branches):
        bpath = f"{path}[{i}]"
        _check_keys(br, bpath, {"else", "when", "value"})
        if "else" in br:
            _check_keys(br, bpath, {"else"})
            if i != len(branches) - 1:
                raise ConfigError(bpath, "the else branch must come last")
            guard, src = None, None
            value = _number(be, br["else"], f"{bpath}.else")
        else:
            src = _get(br, bpath, "when")
            guard = _compile(src, f"{bpath}.when", parse_predicate)
            value = _number(be, _get(br, bpath, "value"), f"{bpath}.value")
        lowered.append((guard, Num(Fraction(value))))
        norm.append({"else": be.format(value)} if src is None
                    else {"when": src, "value": be.format(value)})
    return Piecewise(tuple(lowered)), {"piecewise": norm}


def _parse_graph(be: Backend, obj, dimension: int) -> tuple:
    path = "graph"
    _check_keys(obj, path, {"kind", "order", "edge"})
    kind = _get(obj, path, "kind")
    if kind == "complete":
        _check_keys(obj, path, {"kind"})
        return make_complete(), {"kind": "complete"}
    if kind == "poset":
        _check_keys(obj, path, {"kind", "order"})
        if "order" not in obj:
            return make_poset(), {"kind": "poset"}
        src = obj["order"]
        return (make_poset(_predicate(be, src, f"{path}.order", dimension)),
                {"kind": "poset", "order": src})
    if kind == "custom":
        _check_keys(obj, path, {"kind", "edge"})
        src = _get(obj, path, "edge")
        return (make_custom(_predicate(be, src, f"{path}.edge", dimension)),
                {"kind": "custom", "edge": src})
    raise ConfigError(f"{path}.kind", f"unknown graph kind {kind!r}")


FAMILIES = {c.mode: c for c in (BanachConstants, KannanConstants)}


def _parse_contraction(be: Backend, obj) -> tuple:
    path = "contraction"
    _check_keys(obj, path, {*FAMILIES, "undirected"})
    undirected = _bool(obj, path, "undirected", False)
    given = [k for k in FAMILIES if k in obj]
    if len(given) != 1:
        raise ConfigError(path, "give exactly one of 'banach' or 'kannan'")
    mode = given[0]
    sub, sub_path = obj[mode], f"{path}.{mode}"
    names = [fd.name for fd in fields(FAMILIES[mode])]
    _check_keys(sub, sub_path, set(names))
    vals = {n: _number(be, _get(sub, sub_path, n), f"{sub_path}.{n}")
            for n in names}
    try:
        constants = FAMILIES[mode](**vals)
    except AdmissibilityError as e:
        raise ConfigError(sub_path, str(e)) from None
    norm = {mode: {n: be.format(v) for n, v in vals.items()},
            "undirected": undirected}
    return constants, undirected, norm


#: Cap on each size a config sets: the pairs ``check`` samples, its points
#: times coefficient pairs, the rows of a ``bounds`` table, the orbit pairs of
#: the cf check and the Picard steps (so trace rows) of a ``solve``.
MAX_SAMPLE_PAIRS = 10 ** 6


def _cap(size: int, path: str, what: str) -> None:
    if size > MAX_SAMPLE_PAIRS:
        raise ConfigError(path, f"{what} is above the cap of {MAX_SAMPLE_PAIRS}")


def _parse_solve(be: Backend, obj, dimension: int) -> tuple:
    path = "solve"
    _check_keys(obj, path, {"x0", "tol", "max_iter", "cf_depth", "bounds_depth"})
    raw_x0 = _get(obj, path, "x0")
    if not isinstance(raw_x0, list):
        raw_x0 = [raw_x0]
    if len(raw_x0) != dimension:
        raise ConfigError(f"{path}.x0",
                          f"expected {dimension} coordinates, got {len(raw_x0)}")
    x0 = tuple(_number(be, c, f"{path}.x0[{i}]") for i, c in enumerate(raw_x0))
    tol = _number(be, _get(obj, path, "tol"), f"{path}.tol")
    if not tol > 0:
        raise ConfigError(f"{path}.tol", "tolerance must be positive")
    max_iter = _int(obj.get("max_iter", 500), f"{path}.max_iter", 1)
    _cap(max_iter, f"{path}.max_iter", f"{max_iter} Picard steps")
    cf_depth = _int(obj.get("cf_depth", 20), f"{path}.cf_depth", 1)
    pairs = cf_depth * (cf_depth + 1) // 2
    _cap(pairs, f"{path}.cf_depth", f"{pairs} orbit pairs at depth {cf_depth}")
    bounds_depth = _int(obj.get("bounds_depth", 50), f"{path}.bounds_depth", 1)
    rows = bounds_depth * (bounds_depth + 1) // 2
    _cap(rows, f"{path}.bounds_depth", f"{rows} bounds rows at depth {bounds_depth}")
    settings = SolveSettings(x0, tol, max_iter, cf_depth, bounds_depth)
    norm = {"x0": [be.format(c) for c in x0], "tol": be.format(tol),
            "max_iter": max_iter, "cf_depth": cf_depth,
            "bounds_depth": bounds_depth}
    return settings, norm


def _parse_samples(be: Backend, obj, dimension: int) -> tuple:
    path = "samples"
    _check_keys(obj, path, {"grid", "random_pairs", "coeff_pairs", "seed"})
    grid = obj.get("grid", {"min": -2, "max": 2, "count": 9})
    _check_keys(grid, f"{path}.grid", {"min", "max", "count"})
    gmin = _number(be, _get(grid, f"{path}.grid", "min"), f"{path}.grid.min")
    gmax = _number(be, _get(grid, f"{path}.grid", "max"), f"{path}.grid.max")
    gcount = _int(_get(grid, f"{path}.grid", "count"), f"{path}.grid.count", 1)
    if gcount > 64:
        raise ConfigError(f"{path}.grid.count",
                          "grid count above 64 makes the pair sample explode")
    random_pairs = _int(obj.get("random_pairs", 0), f"{path}.random_pairs")
    # 2^40 is already over the cap, so no dimension above 20 is raised to
    _cap(gcount ** (2 * min(dimension, 20)) + random_pairs, path,
         f"{gcount}^{2 * dimension} grid pairs + {random_pairs} random pairs")
    coeff_pairs = _int(obj.get("coeff_pairs", 0), f"{path}.coeff_pairs")
    # the samplers check each point (build_point_sample's) with each pair,
    # one coordinate at a time
    points = gcount ** min(dimension, 20) + 2 * random_pairs
    coeffs = len(canonical_coeff_pairs(be)) + coeff_pairs
    work = points * dimension * coeffs
    _cap(work, path, f"{work} coordinates in sampler checks ({points} points "
                     f"x {dimension} coordinates x {coeffs} coefficient pairs)")
    seed = _int(obj["seed"], f"{path}.seed") if "seed" in obj else None
    if (random_pairs > 0 or coeff_pairs > 0) and seed is None:
        raise ConfigError(f"{path}.seed",
                          "a seed is required whenever random sampling is requested")
    settings = SampleSettings(gmin, gmax, gcount, random_pairs, coeff_pairs, seed)
    norm = {"grid": {"min": be.format(gmin), "max": be.format(gmax),
                     "count": gcount},
            "random_pairs": random_pairs, "coeff_pairs": coeff_pairs}
    if seed is not None:
        norm["seed"] = seed
    return settings, norm


TOP_KEYS = {"space", "modular", "map", "graph", "contraction", "solve", "samples"}


def load_config(source, backend_override: Optional[str] = None) -> ExperimentConfig:
    """Parse a config from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        doc = source
    else:
        s = str(source)
        if s.lstrip().startswith("{"):
            text = s
        else:
            try:
                text = FsPath(s).read_text()
            except OSError as e:
                raise ConfigError("", f"cannot read config file: {e}") from None
        try:
            doc = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise ConfigError("", f"invalid JSON: {e}") from None

    _check_keys(doc, "", TOP_KEYS)
    space = _get(doc, "", "space")
    _check_keys(space, "space", {"dimension", "backend"})
    dimension = _int(_get(space, "space", "dimension"), "space.dimension", 1)
    backend_name = backend_override or space.get("backend", "float")
    try:
        be = get_backend(backend_name)
    except ValueError as e:
        raise ConfigError("space.backend", str(e)) from None

    spec, norm_modular = _parse_modular(be, _get(doc, "", "modular"), dimension)
    self_map, norm_map = _parse_map(be, _get(doc, "", "map"), dimension)
    graph, norm_graph = _parse_graph(be, _get(doc, "", "graph"), dimension)
    constants, undirected, norm_contraction = _parse_contraction(
        be, _get(doc, "", "contraction"))

    solve = None
    norm_solve = None
    if "solve" in doc:
        solve, norm_solve = _parse_solve(be, doc["solve"], dimension)
    samples, norm_samples = _parse_samples(be, doc.get("samples", {}),
                                           dimension)

    normalized = {
        "space": {"dimension": dimension, "backend": be.name},
        "modular": norm_modular,
        "map": norm_map,
        "graph": norm_graph,
        "contraction": norm_contraction,
        "samples": norm_samples,
    }
    if norm_solve is not None:
        normalized["solve"] = norm_solve

    return ExperimentConfig(
        backend=be, dimension=dimension, spec=spec, map=self_map, graph=graph,
        constants=constants, undirected=undirected, solve=solve,
        samples=samples, normalized=normalized)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Normalized serialization; parsing it back yields the same config."""
    return json.loads(json.dumps(cfg.normalized))
