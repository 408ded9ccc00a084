"""Command-line harness.

Subcommands (one verb per experiment type):

* ``check``   sample the modular axioms, edge preservation and the configured
              contraction inequality; exit 1 on any violation.
* ``solve``   run certified Picard iteration, print the certificate and write
              the per-iteration CSV trace; exit 2 on non-convergence.
* ``bounds``  tabulate bound-vs-actual gap rows; exit 1 if any slack is
              negative (which admissible inputs can never produce).
* ``repro``   replay the embedded worked-example identities on the exact
              backend; exit 1 naming the first mismatch.

Backend resolution: the --backend flag wins, then the MODFIX_BACKEND
environment variable, then the config's space.backend, then float.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from fractions import Fraction

from .backend import Backend, get_backend
from .config import ExperimentConfig, load_config
from .contractions import (_WalkedPairs, check_banach_condition,
                           check_kannan_condition)
from .errors import ModfixError
from .modular import AxiomReport, _sampler_pass, gap_table
from .repro import run_repro
from .sampling import (SplitMix64, canonical_coeff_pairs, grid_points,
                       random_coeff_pairs, random_pairs)
from .solver import picard_orbit, solve_banach, solve_kannan


def _grid_and_random(cfg: ExperimentConfig, seed_offset: int) -> tuple:
    """The grid points and the random pairs drawn from seed + seed_offset."""
    s = cfg.samples
    grid = grid_points(cfg.backend, s.grid_min, s.grid_max, s.grid_count,
                       cfg.dimension)
    if s.random_pairs == 0:
        return grid, []
    return grid, random_pairs(SplitMix64(s.seed + seed_offset), cfg.backend,
                              cfg.dimension, s.grid_min, s.grid_max,
                              s.random_pairs)


def build_point_sample(cfg: ExperimentConfig) -> list:
    grid, rand = _grid_and_random(cfg, 0)
    return grid + [p for pair in rand for p in pair]


def build_pair_sample(cfg: ExperimentConfig) -> list:
    grid, rand = _grid_and_random(cfg, 1)
    return [(x, y) for x in grid for y in grid] + rand


def build_coeff_sample(cfg: ExperimentConfig) -> list:
    coeffs = canonical_coeff_pairs(cfg.backend)
    if cfg.samples.coeff_pairs > 0:
        rng = SplitMix64(cfg.samples.seed + 2)
        coeffs.extend(random_coeff_pairs(rng, cfg.backend,
                                         cfg.samples.coeff_pairs))
    return coeffs


def _print_report(be: Backend, name: str, rep, suffix: str = "") -> bool:
    """Print a report line and its first three witnesses; return rep.ok."""
    if isinstance(rep, AxiomReport):
        scope = f"in {rep.checks} checks"
        witnesses = [f"{v.axiom} {v.witness}" for v in rep.violations[:3]]
    else:
        scope = f"on {rep.pairs_checked} edges"
        witnesses = [_format_pair_violation(be, v) for v in rep.violations[:3]]
    print(f"{'ok  ' if rep.ok else 'FAIL'} {name}: "
          f"{len(rep.violations)} violation(s) {scope}{suffix}")
    for w in witnesses:
        print(f"     witness: {w}")
    return rep.ok


def _format_pair_violation(be: Backend, v) -> str:
    parts = [f"x={tuple(be.format(c) for c in v.x)}",
             f"y={tuple(be.format(c) for c in v.y)}"]
    if v.lhs is not None:
        parts.append(f"lhs={be.format(v.lhs)}")
        parts.append(f"rhs={be.format(v.rhs)}")
    return ", ".join(parts)


def _family(cfg: ExperimentConfig) -> tuple:
    """The configured constants with the library's checker and solver for
    their family, looked up by name at call time."""
    if cfg.constants.mode == "banach":
        return cfg.constants, check_banach_condition, solve_banach
    return cfg.constants, check_kannan_condition, solve_kannan


def cmd_check(cfg: ExperimentConfig) -> int:
    be = cfg.backend
    points = build_point_sample(cfg)
    pairs = build_pair_sample(cfg)
    coeffs = build_coeff_sample(cfg)
    axioms, convexity = _sampler_pass(cfg.spec, points, coeffs, backend=be)
    ok = _print_report(be, "modular-axioms", axioms)
    if cfg.spec.convex:
        ok &= _print_report(be, "convexity", convexity())
    pairs = _WalkedPairs(cfg.map, cfg.graph, pairs)  # one walk, for both
    ok &= _print_report(be, "edge-preservation", pairs.report)
    c, check, _ = _family(cfg)
    rep = check(cfg.map, cfg.spec, cfg.graph, c, pairs,
                use_undirected=cfg.undirected, backend=be)
    ratio = "n/a" if rep.max_ratio is None else be.format(rep.max_ratio)
    ok &= _print_report(be, f"{rep.condition}-condition", rep,
                        f", max lhs/rhs = {ratio}")
    if rep.a2_within_half_b is not None:
        print(f"     note: a2 <= b/2 (undirected role-interchange margin): "
              f"{'yes' if rep.a2_within_half_b else 'no'}")
    print("result:", "ok" if ok else "FAIL")
    return 0 if ok else 1


def _write_csv(path: str, header, rows, be: Backend) -> None:
    """Stream the rows through one ``%s`` line template: the bytes of
    ``csv.writer``'s default dialect, which quotes only a field holding a
    comma, a quote or a line end, and no header or cell holds one.  A cell is
    ``""``, an int, a float or a Fraction, whose ``str`` is ``be.format``'s
    text; ``be`` is kept only for the four arguments perfbench's tracer unpacks."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(line % tuple(row) for row in rows)
    except OSError as e:
        raise ModfixError(f"cannot write {path}: {e.strerror or e}") from None


def _print_certificate(cert, be: Backend) -> None:
    print(f"mode: {cert.mode}")
    print(f"backend: {cert.backend}")
    c = cert.constants
    print("constants: " + " ".join(f"{fd.name}={be.format(getattr(c, fd.name))}"
                                   for fd in fields(c)))
    alpha = "" if cert.alpha is None else f"alpha: {be.format(cert.alpha)}  "
    print(f"{alpha}seed {c.seed_label}: {be.format(cert.initial_gap)}"
          f"  rate {c.rate_label}: {be.format(cert.rate)}")
    print(f"iterations: {cert.iterations} (stop: {cert.stop_reason})")
    print(f"fixed point: {tuple(be.format(c) for c in cert.fixed_point)}"
          f"{' [exact]' if cert.exact_fixed else ''}"
          f"{' [snapped]' if cert.snapped else ''}")
    print(f"residual rho((b/2)(fx*-x*)): {be.format(cert.residual)}")
    print(f"bound at stop: {be.format(cert.bound_at_stop)}")
    print(f"forward-orbit edges checked to depth {cert.cf_checked_depth}: "
          f"{'ok' if cert.cf_ok else 'FAILED'}")
    ev = cert.uniqueness_evidence
    if ev is not None:
        if ev.kind == "path":
            print(f"uniqueness evidence: weakly connected on orbit witness set: "
                  f"{'yes' if ev.weakly_connected else 'no'}")
        else:
            z = ("none" if ev.common_neighbor is None
                 else tuple(be.format(c) for c in ev.common_neighbor))
            print(f"uniqueness evidence: common neighbor {z}, "
                  f"k < 1/2: {'yes' if ev.rate_below_half else 'no'}")
    print(f"converged: {'yes' if cert.converged else 'NO'}")


def cmd_solve(cfg: ExperimentConfig, out: str) -> int:
    if cfg.solve is None:
        raise ModfixError("config has no solve block")
    be = cfg.backend
    sv = cfg.solve
    c, _, solve = _family(cfg)
    cert = solve(cfg.map, cfg.spec, cfg.graph, c, sv.x0, sv.tol, sv.max_iter,
                 sv.cf_depth, backend=be)
    header = (["n"] + [f"x_{i}" for i in range(cfg.dimension)]
              + ["step_gap", "apriori_bound"])
    rows = []
    for n, pt in enumerate(cert.trace.points):
        gap = "" if n == 0 else cert.trace.step_gaps[n - 1]
        bound = "" if n < c.tail_start else c.tail(cert.initial_gap, n)
        rows.append([n, *pt, gap, bound])
    _write_csv(out, header, rows, be)
    _print_certificate(cert, be)
    print(f"trace: {out} ({len(rows)} rows)")
    return 0 if cert.converged else 2


def cmd_bounds(cfg: ExperimentConfig, out: str) -> int:
    if cfg.solve is None:
        raise ModfixError("config has no solve block")
    be = cfg.backend
    sv = cfg.solve
    depth = sv.bounds_depth
    orbit = picard_orbit(cfg.map, sv.x0, depth).points
    c = cfg.constants
    pair_bound = c.pair_table(c.seed_gap(cfg.spec, orbit[0], orbit[1]), depth)
    gap = gap_table(cfg.spec, c.b, orbit)
    exact = be.rel_slack == 0.0
    rows = []
    negative = 0
    for n in range(1, depth + 1):
        for m in range(n, depth + 1):
            actual = gap(m, n)
            bound = pair_bound(n, m)
            slack = bound - actual
            # an int/Fraction slack is of two exact values: its sign decides
            if (slack < 0 if exact and type(slack) in (int, Fraction)
                    else be.violates(actual, bound)):
                negative += 1
            rows.append([n, m, actual, bound, slack])
    _write_csv(out, ["n", "m", "actual_gap", "bound", "slack"], rows, be)
    print(f"bounds: {len(rows)} rows, {negative} negative-slack row(s) -> {out}")
    return 1 if negative else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modfix",
        description="Fixed points of graph-constrained contractions on "
                    "modular spaces: checkers, solver, bound tables, repro.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out):
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--backend", choices=["exact", "float"], default=None,
                       help="numeric backend override (beats MODFIX_BACKEND)")
        if needs_out:
            p.add_argument("--out", required=True, help="output CSV path")

    add_common(sub.add_parser("check", help="sample the hypotheses"), False)
    add_common(sub.add_parser("solve", help="certified Picard iteration"), True)
    add_common(sub.add_parser("bounds", help="bound-vs-actual table"), True)
    sub.add_parser("repro", help="replay embedded worked examples (exact backend)")

    args = parser.parse_args(argv)
    try:
        if args.command == "repro":
            return run_repro()
        backend = args.backend
        if backend is None and os.environ.get("MODFIX_BACKEND"):
            backend = os.environ["MODFIX_BACKEND"]
            try:
                get_backend(backend)
            except ValueError as e:
                raise ModfixError(f"MODFIX_BACKEND: {e}") from None
        cfg = load_config(args.config, backend)
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        return cmd_bounds(cfg, args.out)
    except ModfixError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
