"""Contraction condition checks, constant estimation and convex rescaling."""

from dataclasses import astuple
from fractions import Fraction as F
from functools import cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfix import (EXACT, FLOAT, AdmissibilityError, BanachConstants,
                    KannanConstants, SelfMap, abs_norm, affine_map,
                    check_banach_condition, check_convexity,
                    check_edge_preservation, check_kannan_condition,
                    check_modular_axioms, constant_map, convex_rescale_banach,
                    convex_rescale_kannan, custom_modular, estimate_banach_k,
                    kannan_cauchy_bound, make_complete, make_custom,
                    make_poset, power,
                    rho_gap, scalar_map, weighted_power)
from modfix import contractions, modular
from modfix.backend import infer_backend
from modfix.contractions import ContractionReport, PairViolation, _WalkedPairs
from modfix.expr import _lower, parse_expression
from modfix.fixtures import banach_linear, kannan_piecewise
from modfix.graphs import has_edge, has_undirected_edge
from modfix.sampling import (SplitMix64, admissible_banach_triples,
                             admissible_kannan_tuples, canonical_coeff_pairs,
                             grid_points, random_pairs)

G0 = make_complete()
G1 = make_poset()


def _picky_edge(x, y):
    # an order on coordinate sums that raises on a point whose first
    # coordinate is 2: a function of the points' values
    if x and x[0] == 2:
        raise ValueError(f"no edge test at {x!r}")
    return sum(x) <= sum(y)


G2 = make_custom(_picky_edge)


def grid_pairs(lo=-2, hi=2, den=2):
    pts = [(F(i, den),) for i in range(lo * den, hi * den + 1)]
    return [(x, y) for x in pts for y in pts if x != y]


# constants admissibility ----------------------------------------------------

def test_banach_constants_validation():
    BanachConstants(F(1, 2), F(1, 2), F(1))
    with pytest.raises(AdmissibilityError):
        BanachConstants(F(1), F(1, 2), F(1))       # k = 1
    with pytest.raises(AdmissibilityError):
        BanachConstants(F(1, 2), F(1), F(1))       # a = b
    with pytest.raises(AdmissibilityError):
        BanachConstants(F(-1, 2), F(1, 2), F(1))   # k <= 0


def test_banach_alpha_is_conjugate_exponent():
    c = BanachConstants(F(2, 3), F(1, 2), F(1))
    assert c.alpha == 2
    assert c.a / c.b + 1 / c.alpha == 1


def test_kannan_constants_validation():
    KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(1))
    with pytest.raises(AdmissibilityError):
        KannanConstants(F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(1))  # k+l = 1
    with pytest.raises(AdmissibilityError):
        KannanConstants(F(1, 4), F(1, 4), F(3, 4), F(1, 2), F(1))  # a1 > b/2
    with pytest.raises(AdmissibilityError):
        KannanConstants(F(1, 4), F(1, 4), F(1, 2), F(2), F(1))     # a2 > b


def test_kannan_derived_rates():
    c = KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(1))
    assert c.delta == F(16, 17)
    assert not c.k_below_half
    assert not c.a2_within_half_b
    c2 = KannanConstants(F(1, 4), F(1, 2), F(1, 2), F(1, 2), F(1))
    assert c2.uniqueness_rate == F(1, 3)
    assert c2.k_below_half and c2.a2_within_half_b


# pair-bound tables ------------------------------------------------------------

TABLE_DEPTH = 150
unit_frac = st.fractions(min_value=F(1, 50), max_value=F(49, 50),
                         max_denominator=60)


def _both_families(backend, k, u):
    # a, a1, a2 and b do not enter the pair bound; l = (1-k) u keeps k + l < 1
    n = backend.number
    return (BanachConstants(n(k), n(F(1, 2)), n(1)),
            KannanConstants(n(k), n((1 - k) * u), n(F(1, 2)), n(1), n(1)))


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
@given(k=unit_frac, u=unit_frac,
       seed=st.fractions(min_value=F(1, 60), max_value=10, max_denominator=60))
@settings(max_examples=3, deadline=None)
def test_pair_table_equals_the_readme_formulas(backend, k, u, seed):
    # the Banach tail k^n r/(1-k) and the Kannan pair bound
    # k delta^(m-1) d0 + l delta^(n-1) d0, delta = l/(1-k), written out
    seed = backend.number(seed)
    banach, kannan = _both_families(backend, k, u)
    b_bound = banach.pair_table(seed, TABLE_DEPTH)
    k_bound = kannan.pair_table(seed, TABLE_DEPTH)
    delta = kannan.l / (1 - kannan.k)
    for n in range(1, TABLE_DEPTH + 1):
        for m in range(n, TABLE_DEPTH + 1):
            # == on floats: the same bits
            assert b_bound(n, m) == banach.k ** n * seed / (1 - banach.k)
            assert k_bound(n, m) == (kannan.k * delta ** (m - 1) * seed
                                     + kannan.l * delta ** (n - 1) * seed)


@pytest.mark.parametrize("backend", [EXACT, FLOAT], ids=["exact", "float"])
def test_pair_table_rejects_a_negative_seed_as_pair_does(backend):
    # the table's entries are the family's pair bounds; tail is the one-index
    # bound each family's pairs are built from, and rejects the same seed
    seed = backend.number(F(-1, 4))
    for c in _both_families(backend, F(1, 2), F(1, 2)):
        with pytest.raises(AdmissibilityError) as from_tail:
            c.tail(seed, 1)
        with pytest.raises(AdmissibilityError) as from_table:
            c.pair_table(seed, 2)
        assert str(from_table.value) == str(from_tail.value)


@pytest.mark.parametrize("n, m", [(0, 2), (2, 0), (0, 0), (-1, 3)])
def test_kannan_pair_rejects_an_index_below_one(n, m):
    c = KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(1))
    # the index is checked before the seed
    for seed in (F(1, 4), F(-1, 4)):
        with pytest.raises(ValueError, match="indices must be >= 1"):
            kannan_cauchy_bound(c, seed, n, m)
    assert (kannan_cauchy_bound(c, F(1, 4), 1, 2)
            == c.pair_table(F(1, 4), 2)(1, 2) == F(4, 17))


# edge preservation ----------------------------------------------------------

def test_edge_preservation_on_complete_graph_is_trivial():
    rep = check_edge_preservation(scalar_map(lambda t: -t), G0, grid_pairs())
    assert rep.ok and rep.pairs_checked > 0


def test_monotone_map_preserves_order_edges():
    rep = check_edge_preservation(scalar_map(lambda t: t / 3), G1, grid_pairs())
    assert rep.ok


def test_order_reversal_is_caught():
    rep = check_edge_preservation(scalar_map(lambda t: -t), G1,
                                  [((F(0),), (F(1),))])
    assert not rep.ok
    assert rep.violations[0].x == (F(0),) and rep.violations[0].y == (F(1),)


# displacement (Banach) condition --------------------------------------------

def test_linear_fixture_holds_with_equality():
    fx = banach_linear(EXACT)
    rep = check_banach_condition(fx.map, fx.spec, fx.graph, fx.constants,
                                 grid_pairs(), backend=EXACT)
    assert rep.ok
    assert rep.max_ratio == 1  # identity, not just inequality


def test_piecewise_map_violates_displacement_at_probe():
    fx = kannan_piecewise(EXACT)
    probe = ((F(1),), (F(3, 5),))
    for c in (BanachConstants(F(1, 2), F(1, 2), F(1)),
              BanachConstants(F(99, 100), F(9), F(10))):
        rep = check_banach_condition(fx.map, fx.spec, fx.graph, c, [probe],
                                     backend=EXACT)
        assert not rep.ok
        v = rep.violations[0]
        assert (v.lhs, v.rhs) == (4 * c.b ** 2 / 25, 4 * c.a ** 2 * c.k / 25)


def test_constant_map_never_violates():
    c = BanachConstants(F(1, 2), F(1), F(2))
    rep = check_banach_condition(constant_map((F(5),)), power(2), G0, c,
                                 grid_pairs(), backend=EXACT)
    assert rep.ok and rep.max_ratio == 0


def test_nan_modular_fails_the_condition():
    nan_rho = custom_modular(lambda pt: float("nan"))
    c = BanachConstants(0.5, 0.5, 1.0)
    rep = check_banach_condition(scalar_map(lambda t: t / 3), nan_rho, G0, c,
                                 [((0.0,), (1.0,))], backend=FLOAT)
    assert not rep.ok and rep.pairs_checked == 1


def test_infinite_image_gap_fails_the_condition():
    # rho is +inf on the image gap 3 and finite on the gap 1/2 of the pair
    inf_rho = custom_modular(
        lambda pt: abs(pt[0]) if abs(pt[0]) < 2 else float("inf"))
    c = BanachConstants(0.5, 0.5, 1.0)
    rep = check_banach_condition(scalar_map(lambda t: 3 * t), inf_rho, G0, c,
                                 [((0.0,), (1.0,))], backend=FLOAT)
    assert not rep.ok and rep.pairs_checked == 1


# self-displacement (Kannan) condition ----------------------------------------

def test_piecewise_fixture_satisfies_kannan():
    fx = kannan_piecewise(EXACT)
    pairs = grid_pairs() + [((F(1),), (F(0),)), ((F(0),), (F(1),))]
    rep = check_kannan_condition(fx.map, fx.spec, fx.graph, fx.constants,
                                 pairs, backend=EXACT)
    assert rep.ok
    assert rep.a2_within_half_b is False  # a2 = b, reported but not enforced


def test_kannan_rhs_value_at_spike_zero_pair():
    fx = kannan_piecewise(EXACT)
    c = fx.constants
    x, y = (F(1),), (F(0),)
    lhs = rho_gap(fx.spec, c.b, fx.map(x), fx.map(y))
    rhs = (c.k * rho_gap(fx.spec, c.a1, fx.map(x), x)
           + c.l * rho_gap(fx.spec, c.a2, fx.map(y), y))
    assert lhs == F(4, 25)
    assert rhs == F(4, 25) + F(16, 81) * F(1, 4)  # = 424/2025


def test_linear_map_violates_kannan_at_origin_pair():
    fx = banach_linear(EXACT)
    for c in (KannanConstants(F(1, 3), F(1, 3), F(1, 4), F(1, 2), F(1)),
              KannanConstants(F(9, 10), F(1, 20), F(1), F(2), F(2))):
        rep = check_kannan_condition(fx.map, fx.spec, fx.graph, c,
                                     [((F(2),), (F(0),))], backend=EXACT)
        assert not rep.ok


def test_kannan_loop_pairs_hold_trivially():
    fx = kannan_piecewise(EXACT)
    rep = check_kannan_condition(fx.map, fx.spec, fx.graph, fx.constants,
                                 [((F(7),), (F(7),))], backend=EXACT)
    assert rep.ok and rep.pairs_checked == 1


def test_kannan_role_interchange_swaps_rhs_terms():
    # swapping (k, a1) with (l, a2) and the pair order reproduces the same rhs
    fx = kannan_piecewise(EXACT)
    c = fx.constants
    for x, y in grid_pairs(-1, 2, 2):
        fxp, fyp = fx.map(x), fx.map(y)
        rhs = (c.k * rho_gap(fx.spec, c.a1, fxp, x)
               + c.l * rho_gap(fx.spec, c.a2, fyp, y))
        swapped = (c.l * rho_gap(fx.spec, c.a2, fyp, y)
                   + c.k * rho_gap(fx.spec, c.a1, fxp, x))
        assert rhs == swapped


def test_directed_pass_transfers_to_undirected_on_symmetric_sample():
    # on a symmetric-closed sample a directed pass implies an undirected pass
    fx = banach_linear(EXACT)
    pairs = grid_pairs()
    sym = pairs + [(y, x) for x, y in pairs]
    assert check_banach_condition(fx.map, fx.spec, G1, fx.constants, sym,
                                  use_undirected=False, backend=EXACT).ok
    assert check_banach_condition(fx.map, fx.spec, G1, fx.constants, sym,
                                  use_undirected=True, backend=EXACT).ok


# empirical contraction factor ------------------------------------------------

def test_estimate_on_linear_map_is_exact():
    fx = banach_linear(EXACT)
    est = estimate_banach_k(fx.map, fx.spec, fx.graph, F(1, 2), F(1),
                            grid_pairs())
    assert est == F(2, 3)


def test_estimate_identity_map_not_contracting():
    est = estimate_banach_k(scalar_map(lambda t: t), abs_norm(), G0,
                            F(1, 2), F(1), grid_pairs())
    assert est == 2


def test_estimate_constant_map_and_empty():
    est = estimate_banach_k(constant_map((F(0),)), abs_norm(), G0,
                            F(1, 2), F(1), grid_pairs())
    assert est == 0
    est2 = estimate_banach_k(scalar_map(lambda t: t), abs_norm(), G0,
                             F(1, 2), F(1), [])
    assert est2 is None


def test_estimate_below_one_implies_check_passes():
    fx = banach_linear(EXACT)
    pairs = grid_pairs()
    est = estimate_banach_k(fx.map, fx.spec, fx.graph, F(1, 2), F(1), pairs)
    assert est < 1
    c = BanachConstants(est, F(1, 2), F(1))
    assert check_banach_condition(fx.map, fx.spec, fx.graph, c, pairs,
                                  backend=EXACT).ok


# convex rescaling -------------------------------------------------------------

def test_rescale_banach_exact_example():
    res = convex_rescale_banach(F(4, 9), F(1), F(2))
    assert (res.k, res.a, res.b) == (F(8, 27), F(3, 2), F(2))


def test_rescale_banach_near_degenerate():
    res = convex_rescale_banach(F(999, 1000), F(1), F(21, 20))
    assert res.k < 1 and res.a < res.b


def test_rescale_banach_boundary_rejection():
    with pytest.raises(AdmissibilityError):
        convex_rescale_banach(F(1, 2), F(1), F(1))  # b = max(a, ak)
    with pytest.raises(AdmissibilityError):
        convex_rescale_banach(F(1, 2), F(-1), F(2))


def test_rescale_kannan_exact_example():
    res = convex_rescale_kannan(F(64, 81), F(16, 81), F(1, 2), F(1), F(9))
    assert (res.k, res.l, res.a1, res.a2, res.b) == (
        F(64, 729), F(32, 729), F(9, 2), F(9, 2), F(9))
    assert res.k + res.l < 1 and res.k_below_half


def test_rescale_kannan_boundary_rejection():
    with pytest.raises(AdmissibilityError):
        convex_rescale_kannan(F(1, 4), F(1, 4), F(1), F(1), F(4))  # b = 4*max


def test_rescale_soundness_on_square_modular():
    # whenever the relaxed triple passes on a sample, the rescaled one does too
    spec = power(2)
    f = scalar_map(lambda t: t / 3)
    pairs = grid_pairs()
    relaxed = BanachConstants(F(4, 9), F(1), F(2))
    assert check_banach_condition(f, spec, G0, relaxed, pairs, backend=EXACT).ok
    rescaled = convex_rescale_banach(F(4, 9), F(1), F(2))
    assert check_banach_condition(f, spec, G0, rescaled, pairs, backend=EXACT).ok


def test_rescale_soundness_kannan_spike_map():
    # the spike map satisfies the relaxed premise (k=l=a1=a2=1, b=5, note
    # b > 4*max = 4) -- such a tuple is not admissible as constants, so the
    # premise is verified by raw arithmetic; the rescaled tuple must then
    # pass the real check on the same sample
    spec = power(2)
    f = scalar_map(lambda t: F(1, 100) if t == 1 else F(0))
    k = l = a1 = a2 = F(1)
    b = F(5)
    pairs = grid_pairs() + [((F(1),), (F(0),)), ((F(0),), (F(1),))]
    for x, y in pairs:
        lhs = rho_gap(spec, b, f(x), f(y))
        rhs = (k * rho_gap(spec, a1, f(x), x) + l * rho_gap(spec, a2, f(y), y))
        assert lhs <= rhs
    res = convex_rescale_kannan(k, l, a1, a2, b)
    assert (res.k, res.l, res.a1, res.a2) == (F(2, 5), F(2, 5), F(5, 2), F(5, 2))
    assert check_kannan_condition(f, spec, G0, res, pairs, backend=EXACT).ok


def test_rescale_soundness_kannan_constant_map():
    # a constant map passes with any admissible tuple; the rescaled tuple of
    # the same inputs must pass on the same sample as well
    pairs = grid_pairs()
    cmap = constant_map((F(2, 7),))
    relaxed = KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(9))
    res = convex_rescale_kannan(F(64, 81), F(16, 81), F(1, 2), F(1), F(9))
    for c in (relaxed, res):
        assert check_kannan_condition(cmap, power(2), G0, c, pairs,
                                      backend=EXACT).ok


pos_frac = st.fractions(min_value=F(1, 50), max_value=4, max_denominator=60)


@given(k=st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=60),
       a=pos_frac,
       extra=pos_frac)
@settings(max_examples=80)
def test_rescale_banach_always_admissible(k, a, extra):
    b = max(a, a * k) + extra
    res = convex_rescale_banach(k, a, b)
    assert 0 < res.k < 1
    assert 0 < res.a < res.b == b


@given(k=pos_frac, l=pos_frac, a1=pos_frac, a2=pos_frac, extra=pos_frac)
@settings(max_examples=80)
def test_rescale_kannan_always_admissible(k, l, a1, a2, extra):
    b = 4 * max(a1, a2, a1 * k, a2 * l) + extra
    res = convex_rescale_kannan(k, l, a1, a2, b)
    assert res.k + res.l < 1
    assert res.k_below_half
    assert res.a1 == res.a2 == b / 2


# each distinct point is mapped once per check ------------------------------

def _counting_map(fn):
    calls = []

    def f(pt):
        calls.append(pt)
        return fn(pt)
    return SelfMap(f, "counted"), calls


@pytest.mark.parametrize("graph", [G0, G1])
def test_checkers_map_each_distinct_point_once(graph):
    pts = [(F(i, 2),) for i in range(-4, 5)]
    pairs = [(x, y) for x in pts for y in pts] + [(pts[0], pts[3])] * 3
    f, calls = _counting_map(lambda pt: (pt[0] / 3,))
    check_edge_preservation(f, graph, pairs)
    assert sorted(calls) == pts  # every point lies on a loop, an edge pair
    banach = BanachConstants(F(1, 2), F(1, 2), F(1))
    kannan = KannanConstants(F(1, 4), F(1, 4), F(1, 2), F(1), F(1))
    for check, c in ((check_banach_condition, banach),
                     (check_kannan_condition, kannan)):
        for undirected in (False, True):
            calls.clear()
            check(f, abs_norm(), graph, c, pairs, use_undirected=undirected)
            assert sorted(calls) == pts
    calls.clear()
    estimate_banach_k(f, abs_norm(), graph, F(1, 2), F(1), pairs)
    assert sorted(calls) == pts


def test_map_skips_points_off_the_edges():
    f, calls = _counting_map(lambda pt: pt)
    rep = check_edge_preservation(f, make_poset(), [((F(2),), (F(1),))])
    assert rep.pairs_checked == 0 and calls == []


def test_equal_points_share_one_image():
    f, calls = _counting_map(lambda pt: (pt[0] / 3,))
    c = BanachConstants(F(1, 2), F(1, 2), F(1))
    rep = check_banach_condition(f, abs_norm(), G0, c,
                                 [((0.0,), (-0.0,)), ((-0.0,), (1.0,))])
    assert rep.pairs_checked == 2
    assert calls == [(0.0,), (1.0,)]


# float verdicts outside their slack agree with exact ones -----------------

DIFF_SPECS = [abs_norm(), power(2), power(3), weighted_power(2, [F(1, 2)])]


def _to_float(pt):
    return tuple(float(v) for v in pt)


def _differential_cases(seed, count):
    """(exact, float) twins of x/3 with the Banach constants (2/3, 1/2, 1),
    which hold with equality under abs-norm, and of random affine maps with
    random admissible Banach and Kannan constants, on a 9-point grid and 20
    random pairs in [-2, 2].  The sample points are dyadic, so each float
    twin is the same point."""
    rng = SplitMix64(seed)
    grid = grid_points(EXACT, -2, 2, 9)
    sample = ([(x, y) for x in grid for y in grid]
              + random_pairs(rng, EXACT, 1, -2, 2, 20))
    samples = sample, [(_to_float(x), _to_float(y)) for x, y in sample]
    cases = [(F(1, 3), 0, check_banach_condition,
              BanachConstants(F(2, 3), F(1, 2), F(1)))]
    for _ in range(count):
        p, q = rng.uniform(EXACT, -1, 1), rng.uniform(EXACT, -1, 1)
        cases += [(p, q, check_banach_condition,
                   admissible_banach_triples(rng, 1)[0]),
                  (p, q, check_kannan_condition,
                   admissible_kannan_tuples(rng, 1)[0])]
    for p, q, check, c in cases:
        maps = affine_map(p, q), affine_map(float(p), float(q))
        twin = type(c)(*(float(v) for v in astuple(c)))
        yield check, maps, (c, twin), samples


def _sides(spec, f, c, x, y):
    fx, fy = f(x), f(y)
    return rho_gap(spec, c.b, fx, fy), c.rhs(partial(rho_gap, spec), x, y, fx, fy)


def test_float_verdicts_outside_their_slack_agree_with_exact():
    decided = {True: 0, False: 0}
    pts = grid_points(EXACT, -2, 2, 9)
    for spec in DIFF_SPECS:
        for checker in (check_modular_axioms, check_convexity):
            exact = checker(spec, pts, canonical_coeff_pairs(EXACT), backend=EXACT)
            fl = checker(spec, [_to_float(x) for x in pts],
                         canonical_coeff_pairs(FLOAT), backend=FLOAT)
            assert ({v.axiom for v in fl.violations}
                    <= {v.axiom for v in exact.violations})
        for graph in (G0, G1):
            for check, maps, consts, samples in _differential_cases(7, 3):
                exact_rep, float_rep = (
                    check(f, spec, graph, c, sample, backend=be)
                    for f, c, sample, be in zip(maps, consts, samples,
                                                (EXACT, FLOAT)))
                exact_bad = {(v.x, v.y) for v in exact_rep.violations}
                float_bad = {(v.x, v.y) for v in float_rep.violations}
                for pair, float_pair in zip(*samples):
                    if not has_edge(graph, *pair):
                        continue
                    lhs, rhs = _sides(spec, maps[0], consts[0], *pair)
                    lhs_f, rhs_f = _sides(spec, maps[1], consts[1], *float_pair)
                    assert (pair in exact_bad) is (lhs > rhs)
                    assert (float_pair in float_bad) is FLOAT.violates(lhs_f, rhs_f)
                    # outside its slack, the float verdict is the exact one
                    for violated, (u, v) in ((True, (lhs_f, rhs_f)),
                                             (False, (rhs_f, lhs_f))):
                        if FLOAT.violates(u, v):
                            assert (lhs > rhs) is violated, (spec.label, pair)
                            decided[violated] += 1
    # both verdicts are decided somewhere, so neither branch is vacuous
    assert decided[True] and decided[False]


@pytest.mark.parametrize("call, message", [
    (lambda: KannanConstants(0, F(1, 5), F(1, 2), 1, 1),
     "all Kannan constants must be positive"),
    (lambda: KannanConstants(F(1, 5), F(1, 5), F(1, 2), -1, 1),
     "all Kannan constants must be positive"),
    (lambda: convex_rescale_kannan(F(1, 2), F(1, 2), 0, 1, 100),
     "rescaling inputs must be positive"),
])
def test_nonpositive_kannan_inputs_are_inadmissible(call, message):
    with pytest.raises(AdmissibilityError) as e:
        call()
    assert str(e.value) == message


# the condition checkers against copies that take every gap through rho_gap

def ref_banach_rhs(c, spec, x, y, fx, fy):
    return c.k * rho_gap(spec, c.a, x, y)


def ref_kannan_rhs(c, spec, x, y, fx, fy):
    return (c.k * rho_gap(spec, c.a1, fx, x)
            + c.l * rho_gap(spec, c.a2, fy, y))


REF_RHS = {"banach": ref_banach_rhs, "kannan": ref_kannan_rhs}


def ref_check_condition(f, spec, g, c, sample, use_undirected, backend):
    """Every gap through rho_gap, each distinct point mapped once."""
    be = backend or infer_backend([astuple(c), sample])
    edge = has_undirected_edge if use_undirected else has_edge
    image = cache(f)
    violations = []
    checked = 0
    max_ratio = None
    for x, y in sample:
        if not edge(g, x, y):
            continue
        fx, fy = image(x), image(y)
        checked += 1
        lhs = rho_gap(spec, c.b, fx, fy)
        rhs = REF_RHS[c.mode](c, spec, x, y, fx, fy)
        if rhs > 0:
            ratio = lhs / rhs
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        if be.violates(lhs, rhs):
            violations.append(PairViolation(x, y, lhs, rhs))
    return ContractionReport(c.mode, checked, violations, max_ratio,
                             getattr(c, "a2_within_half_b", None))


def ref_estimate_banach_k(f, spec, g, a, b, sample):
    half = F(1, 2)
    ratio = ref_check_condition(f, spec, g, BanachConstants(half, a, b),
                                sample, False, None).max_ratio
    return None if ratio is None else ratio * half


def _outcome(call):
    """The repr of what ``call`` returns, or the type and text it raises."""
    try:
        return repr(call())
    except Exception as e:  # noqa: BLE001 -- compared, never swallowed
        return type(e), str(e)


def _expr_modular(backend):
    rho = _lower(parse_expression(
        "piecewise(x < 0 -> 0 - x/2, else -> x^2 + x/3)"), backend)
    return custom_modular(lambda pt: rho({"x": pt[0]}), "expr")


GUARD_SPECS = {
    "abs-norm": lambda be: abs_norm(),
    "power-2": lambda be: power(2),
    "power-3/2": lambda be: power(be.number(F(3, 2))),
    "weighted": lambda be: weighted_power(2, [1, be.number(F(1, 2))]),
    "expr": _expr_modular,
}
COORDS = {"int": st.integers(-3, 3),
          "fraction": st.fractions(-3, 3, max_denominator=6),
          "float": st.floats(-3, 3, allow_nan=False, width=16)}
QUIRKS = ("none", "list", "float", "dimension", "raise")


def _quirky_affine(p, q, quirk, cut):
    """x -> p x + q, but for points with x_0 > cut a list, a float first
    coordinate, one more coordinate or an exception, by ``quirk``; a
    function of the point's value, as the checkers require."""
    def f(pt):
        out = tuple(p * c + q for c in pt)
        if quirk == "none" or not pt[0] > cut:
            return out
        if quirk == "list":
            return list(out)
        if quirk == "raise":
            raise ArithmeticError(f"no image past {cut}: {pt!r}")
        if quirk == "float":
            return (float(out[0]),) + out[1:]
        return out + (q,)
    return SelfMap(f, f"{p} x + {q}, {quirk} past {cut}")


@st.composite
def guard_cases(draw):
    be = draw(st.sampled_from([EXACT, FLOAT]))
    # mostly exact points, which can take the integer-numerator gaps
    kinds = draw(st.sampled_from([("int",), ("fraction",), ("int", "fraction"),
                                  ("int", "fraction"), ("int", "fraction", "float"),
                                  ("float",)]))
    dim = draw(st.sampled_from([0, 1, 2, 2]))  # () is no point
    coord = st.one_of(*(COORDS[k] for k in kinds))
    point = st.tuples(*[coord] * dim)
    pts = draw(st.lists(point, min_size=1, max_size=5))
    pairs = st.tuples(st.sampled_from(pts), st.sampled_from(pts))
    sample = draw(st.lists(pairs, max_size=10))
    number = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=5))
    f = _quirky_affine(draw(number), draw(number), draw(st.sampled_from(QUIRKS)),
                       draw(st.sampled_from([-1, 0, F(1, 2)])))
    spec = GUARD_SPECS[draw(st.sampled_from(sorted(GUARD_SPECS)))](be)
    rng = SplitMix64(draw(st.integers(0, 2 ** 32)))
    cases = (admissible_banach_triples(rng, 1)[0], admissible_kannan_tuples(rng, 1)[0])
    c = draw(st.sampled_from(cases))
    c = type(c)(*(be.number(v) for v in astuple(c)))
    return (be, draw(st.sampled_from([be, None])), f, spec,
            draw(st.sampled_from([G0, G1, G2])), c, sample, draw(st.booleans()))


HALF = BanachConstants(F(1, 2), F(1, 2), F(1))


@given(case=guard_cases())
@settings(max_examples=400, deadline=None)
# the swapped edge test raises, and a point first mapped for the undirected
# condition raises, after edge preservation has passed
@example(case=(EXACT, None, affine_map(1, 0), abs_norm(), G2, HALF,
               [((3,), (2,))], True))
@example(case=(EXACT, EXACT, _quirky_affine(1, 0, "raise", 0), abs_norm(), G1,
               HALF, [((0,), (0,)), ((1,), (0,))], True))
def test_condition_checkers_match_their_reference_copies(case):
    be, backend, f, spec, graph, c, sample, undirected = case
    check = {"banach": check_banach_condition,
             "kannan": check_kannan_condition}[c.mode]
    assert (_outcome(lambda: check(f, spec, graph, c, sample,
                                   use_undirected=undirected, backend=backend))
            == _outcome(lambda: ref_check_condition(f, spec, graph, c, sample,
                                                    undirected, backend)))
    a, b = be.number(F(1, 2)), be.number(1)
    assert (_outcome(lambda: estimate_banach_k(f, spec, graph, a, b, sample))
            == _outcome(lambda: ref_estimate_banach_k(f, spec, graph, a, b,
                                                      sample)))
    assert (_outcome(lambda: check_edge_preservation(f, graph, sample))
            == _outcome(lambda: parent_check_edge_preservation(f, graph,
                                                               sample)))
    assert (_pair_outcomes(f, spec, graph, c, sample, undirected, backend)
            == _parent_pair_outcomes(f, spec, graph, c, sample, undirected,
                                     backend))


# what `check` reads from the pair sample, against the parent's two walks
#
# parent_edge_images and parent_check_edge_preservation are verbatim copies
# of the parent, whose edge preservation and condition each walked the pair
# sample with their own map cache.  _pair_outcomes is what `check` reads
# from one walk (_WalkedPairs) and the condition on the walked sample: the
# edge-preservation report, then the condition's, or the first exception
# (type and text).

def parent_edge_images(f, g, sample, edge, fits=None):
    @cache
    def image(x):
        fx = f(x)
        return fx, fits is not None and fits(fx)
    for x, y in sample:
        if edge(g, x, y):
            (fx, fit_x), (fy, fit_y) = image(x), image(y)
            yield x, y, fx, fy, fit_x and fit_y


def parent_check_edge_preservation(f, g, sample):
    violations = []
    checked = 0
    for x, y, fx, fy, _ in parent_edge_images(f, g, sample, has_edge):
        checked += 1
        if not has_edge(g, fx, fy):
            violations.append(PairViolation(x, y, None, None))
    return ContractionReport("edge-preservation", checked, violations)


CHECKERS = {"banach": check_banach_condition, "kannan": check_kannan_condition}


def _reports_or_raise(reports) -> list:
    """The repr of each report that the iterable ``reports`` gives, up to
    the first exception, given by its type and text."""
    out = []
    try:
        for report in reports:
            out.append(repr(report))
    except Exception as e:  # noqa: BLE001 -- compared, never swallowed
        out.append((type(e), str(e)))
    return out


def _pair_outcomes(f, spec, g, c, sample, undirected, backend):
    def reports():
        walked = _WalkedPairs(f, g, sample)
        yield walked.report
        yield CHECKERS[c.mode](f, spec, g, c, walked,
                               use_undirected=undirected, backend=backend)
    return _reports_or_raise(reports())


def _parent_pair_outcomes(f, spec, g, c, sample, undirected, backend):
    def reports():
        yield parent_check_edge_preservation(f, g, sample)
        yield ref_check_condition(f, spec, g, c, sample, undirected, backend)
    return _reports_or_raise(reports())


# the condition's gaps on exact samples -------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("spec_of", [lambda be: power(2), _expr_modular],
                         ids=["builtin", "expr"])
def test_exact_samples_take_no_rho_gap_call(monkeypatch, spec_of, exact):
    # one choice of evaluator per check; a float sample pays rho_gap for
    # each of its 2 (Banach) or 3 (Kannan) gaps per edge, as it always did
    be, number = (EXACT, lambda v: v) if exact else (FLOAT, float)
    gaps = _count_calls(monkeypatch, contractions, "rho_gap")
    choices = _count_calls(monkeypatch, modular, "_exact_rho")
    # ints and Fractions on the exact backend
    pts = [(number(F(i, 2) if i % 2 else i // 2),) for i in range(-4, 5)]
    pairs = [(x, y) for x in pts for y in pts]
    f = affine_map(number(F(1, 3)), number(F(1, 5)))
    for check, c, per_edge in (
            (check_banach_condition, BanachConstants(F(1, 2), F(1, 2), F(1)), 2),
            (check_kannan_condition,
             KannanConstants(F(1, 4), F(1, 4), F(1, 2), F(1), F(1)), 3)):
        c = type(c)(*(number(v) for v in astuple(c)))
        gaps.clear()
        choices.clear()
        rep = check(f, spec_of(be), G0, c, pairs, backend=be)
        assert rep.pairs_checked == len(pairs)
        if exact:
            assert gaps == [] and len(choices) == 1
        else:
            assert len(gaps) == per_edge * len(pairs)
