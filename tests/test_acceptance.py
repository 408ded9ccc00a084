"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here; the exact-backend criteria use zero tolerance.
"""

import time
from fractions import Fraction as F

from modfix import (EXACT, FLOAT, AdmissibilityError, check_convexity,
                    check_modular_axioms, has_edge, has_undirected_edge,
                    make_complete, make_custom, make_poset, picard_orbit,
                    power, rho_gap, verify_uniqueness_kannan)
from modfix.fixtures import kannan_piecewise, kannan_small_k
from modfix.repro import (check_banach_bound_validity,
                          check_banach_example_identity,
                          check_banach_rescaling,
                          check_kannan_example_cases,
                          check_kannan_rate_and_bound,
                          check_kannan_rescaling,
                          check_linear_map_never_kannan,
                          check_piecewise_never_banach, check_solver_fixtures)
from modfix.sampling import SplitMix64, random_pairs

SEED = 20260810


def _report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _timed(check):
    t0 = time.perf_counter()
    ok, detail = check()
    return ok, detail, time.perf_counter() - t0


def test_criterion_1_banach_example_identity():
    ok, detail, dt = _timed(check_banach_example_identity)
    _report(1, ok and dt < 1.0, f"{detail}, {dt * 1000:.0f} ms (< 1 s)")


def test_criterion_2_kannan_example_inequalities():
    ok, detail, dt = _timed(check_kannan_example_cases)
    _report(2, ok and dt < 1.0, f"{detail}, {dt * 1000:.0f} ms (< 1 s)")


def test_criterion_3_independence_witnesses():
    ok_k, detail_k = check_linear_map_never_kannan()
    ok_b, detail_b = check_piecewise_never_banach()
    _report(3, ok_k and ok_b, f"K2: {detail_k}; B2: {detail_b}")


def test_criterion_4_banach_bound_validity():
    ok, detail, dt = _timed(check_banach_bound_validity)
    _report(4, ok and dt < 1.0, f"{detail}, {dt * 1000:.0f} ms (< 1 s)")


def test_criterion_5_kannan_rate_and_two_index_bound():
    ok, detail = check_kannan_rate_and_bound()
    _report(5, ok, detail)


def test_criterion_6_solver_convergence():
    ok, detail = check_solver_fixtures()
    _report(6, ok, detail)


def test_criterion_7_rescaling_corollaries():
    ok_b, detail_b = check_banach_rescaling()
    ok_k, detail_k = check_kannan_rescaling()
    _report(7, ok_b and ok_k, f"Banach: {detail_b}; Kannan: {detail_k}")


def test_criterion_8_axiom_and_graph_suites():
    from modfix import abs_norm, weighted_power
    rng = SplitMix64(SEED + 2)
    checked = {}
    ok = True
    for name, spec, dim in (("abs-norm", abs_norm(), 1),
                            ("power", power(2), 1),
                            ("weighted-power",
                             weighted_power(2, (1.0, 2.0)), 2)):
        sample = [tuple(rng.uniform(FLOAT, -10, 10) for _ in range(dim))
                  for _ in range(250)]
        coeffs = ([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.25, 0.75)]
                  + [(u, 1 - u) for u in (rng.unit(FLOAT) for _ in range(9))])
        rep = check_modular_axioms(spec, sample, coeffs, backend=FLOAT)
        conv = check_convexity(spec, sample, coeffs, backend=FLOAT)
        checked[name] = rep.checks + conv.checks
        ok &= rep.ok and conv.ok and rep.checks >= 10_000

    graph_pairs = 0
    for g in (make_complete(), make_poset(),
              make_custom(lambda x, y: x[0] + 1 <= y[0])):
        pairs = random_pairs(rng, FLOAT, 1, -5, 5, 10_000)
        for x, y in pairs:
            ok &= has_undirected_edge(g, x, y) == has_undirected_edge(g, y, x)
            ok &= has_edge(g, x, x)
            graph_pairs += 1
    _report(8, ok,
            f"axiom checks per builtin {checked} (each >= 10^4, zero "
            f"violations, convex form included); graph symmetry and loops "
            f"hold on {graph_pairs} random pairs across three kinds")


def test_criterion_9_uniqueness_machinery():
    fx = kannan_piecewise(EXACT)  # k = 64/81 >= 1/2
    rejected = False
    try:
        verify_uniqueness_kannan(fx.constants, fx.spec, fx.map, (F(1, 2),),
                                 (F(3),), 1)
    except AdmissibilityError:
        rejected = True

    small = kannan_small_k(EXACT)  # k = 1/4, lambda = 1/3
    lam_ok = small.constants.uniqueness_rate == F(1, 3)
    xstar = (F(0),)
    dominated = True
    for z in ((F(3),), (F(1),)):
        orbit = picard_orbit(small.map, z, 30).points
        for n in range(31):
            actual = rho_gap(small.spec, small.constants.b, orbit[n], xstar)
            bound = verify_uniqueness_kannan(small.constants, small.spec,
                                             small.map, xstar, z, n)
            dominated &= actual <= bound
    _report(9, rejected and lam_ok and dominated,
            "k = 64/81 rejected (needs k < 1/2); for k = 1/4 the "
            "(1/3)^n bound dominates the orbit for all n <= 30")
