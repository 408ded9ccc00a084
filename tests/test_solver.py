"""Picard orbits, explicit bounds, certified solving and uniqueness checks."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modfix import (EXACT, FLOAT, AdmissibilityError, BanachConstants,
                    DimensionMismatchError, KannanConstants, NonFiniteError,
                    PathUniquenessBound, SelfMap, abs_norm,
                    banach_apriori_bound, check_cf_membership,
                    constant_map, kannan_cauchy_bound, kannan_tail_bound,
                    make_complete, make_custom, make_poset, picard_orbit,
                    power, rho_gap, scalar_map, simplest_rational_in,
                    solve_banach, solve_kannan, verify_uniqueness_banach,
                    verify_uniqueness_kannan, weighted_power)
from modfix.graphs import Path
from modfix.modular import gap_table
from modfix.solver import _snap_candidate
from modfix.fixtures import (banach_linear, isometry, kannan_piecewise,
                             kannan_small_k)

TOL = F(1, 10 ** 9)


# orbits -----------------------------------------------------------------------

def test_picard_orbit_linear_exact():
    fx = banach_linear(EXACT)
    trace = picard_orbit(fx.map, (F(1),), 4)
    assert trace.points == [(F(1),), (F(1, 3),), (F(1, 9),), (F(1, 27),),
                            (F(1, 81),)]


def test_picard_orbit_constant_map():
    c = constant_map((F(5),))
    trace = picard_orbit(c, (F(0),), 2)
    assert trace.points == [(F(0),), (F(5),), (F(5),)]


def test_picard_orbit_piecewise():
    fx = kannan_piecewise(EXACT)
    trace = picard_orbit(fx.map, (F(1),), 3)
    assert trace.points == [(F(1),), (F(1, 10),), (F(1, 2),), (F(1, 2),)]


def test_picard_orbit_step_gaps_consistent():
    fx = kannan_piecewise(EXACT)
    trace = picard_orbit(fx.map, (F(1),), 5)
    assert trace.step_gaps is None  # only the solver records step gaps
    gap = gap_table(fx.spec, F(1), trace.points)
    steps = [gap(i + 1, i) for i in range(5)]
    assert steps == [F(81, 100), F(4, 25), 0, 0, 0]
    for i in range(5):
        assert steps[i] == rho_gap(fx.spec, F(1), trace.points[i + 1],
                                   trace.points[i])


def test_picard_orbit_blowup_raises():
    doubler = scalar_map(lambda t: t * 1e308)
    with pytest.raises(NonFiniteError):
        picard_orbit(doubler, (2.0,), 4)


# forward-orbit edge membership --------------------------------------------------

def test_cf_membership_complete_graph():
    fx = banach_linear(EXACT)
    rep = check_cf_membership(fx.map, make_complete(), (F(9),), depth=5)
    assert rep.ok and rep.pairs_checked == 15


def test_cf_membership_order_graph_monotone_orbit():
    fx = banach_linear(EXACT)
    rep = check_cf_membership(fx.map, make_poset(), (F(1),), depth=6)
    assert rep.ok  # orbit 3^-n is totally ordered


def test_cf_membership_failure_witness():
    g = make_custom(lambda x, y: False)
    fx = banach_linear(EXACT)
    rep = check_cf_membership(fx.map, g, (F(1),), depth=4)
    assert not rep.ok
    n, m, pn, pm = rep.failure
    assert (n, m) == (0, 1) and pn == (F(1),) and pm == (F(1, 3),)


def test_cf_report_keeps_the_orbit_it_checked():
    fx = banach_linear(EXACT)
    for g in (make_complete(), make_custom(lambda x, y: False)):
        rep = check_cf_membership(fx.map, g, (F(1),), depth=6)
        assert rep.orbit == picard_orbit(fx.map, (F(1),), 6).points


# explicit bounds ----------------------------------------------------------------

def test_banach_apriori_bound_values():
    c = BanachConstants(F(2, 3), F(1, 2), F(1))
    assert banach_apriori_bound(c, F(2, 3), 3) == F(16, 27)
    assert banach_apriori_bound(c, F(2, 3), 0) == 2  # r/(1-k)
    assert banach_apriori_bound(c, 0, 7) == 0


def test_banach_apriori_bound_monotone():
    c = BanachConstants(F(2, 3), F(1, 2), F(1))
    vals = [banach_apriori_bound(c, F(2, 3), n) for n in range(30)]
    assert all(vals[i + 1] <= vals[i] for i in range(29))


def test_kannan_cauchy_bound_values():
    c = KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(1))
    # oracle: k (l/(1-k)) d0 + l d0 with d0 = 1/4
    assert kannan_cauchy_bound(c, F(1, 4), 1, 2) == F(4, 17)
    assert kannan_cauchy_bound(c, 0, 3, 5) == 0
    # equal indices collapse to (k+l) delta^(n-1) d0
    n = 4
    d = c.delta
    assert (kannan_cauchy_bound(c, F(1, 4), n, n)
            == (c.k + c.l) * d ** (n - 1) * F(1, 4))


def test_kannan_cauchy_bound_monotone_each_index():
    c = KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(1))
    for n in range(1, 10):
        for m in range(1, 10):
            here = kannan_cauchy_bound(c, F(1, 4), n, m)
            assert kannan_cauchy_bound(c, F(1, 4), n + 1, m) <= here
            assert kannan_cauchy_bound(c, F(1, 4), n, m + 1) <= here


def test_kannan_bound_index_preconditions():
    c = KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(1))
    with pytest.raises(ValueError):
        kannan_cauchy_bound(c, F(1), 0, 2)
    with pytest.raises(ValueError):
        kannan_tail_bound(c, F(1), 0)


@given(s=st.fractions(min_value=0, max_value=F(1, 81), max_denominator=500),
       t=st.fractions(min_value=0, max_value=F(1, 81), max_denominator=500),
       x0=st.one_of(st.just(F(1)), st.fractions(min_value=-3, max_value=3,
                                                  max_denominator=50)))
@settings(max_examples=1, deadline=None)
def test_kannan_pair_bound_holds_to_depth_300(s, t, x0):
    # the README map and tuple, with k and l raised while k + l < 1; the
    # old formula failed at n = 1 from m = 70 on
    assume(s + t < F(1, 81))
    fx = kannan_piecewise(EXACT)
    c = KannanConstants(F(64, 81) + s, F(16, 81) + t, F(1, 2), F(1), F(1))
    orbit = picard_orbit(fx.map, (x0,), 300).points
    # the table `modfix bounds` prints
    bound = c.pair_table(c.seed_gap(fx.spec, orbit[0], orbit[1]), 300)
    for n in range(1, 301):
        for m in range(n, 301):
            assert bound(n, m) >= rho_gap(fx.spec, c.b, orbit[m], orbit[n])


def test_tail_bound_dominates_future_gaps():
    fx = kannan_piecewise(EXACT)
    c = fx.constants
    gap = gap_table(fx.spec, c.b, picard_orbit(fx.map, fx.solve.x0, 60).points)
    d0 = gap(1, 0)
    for n in range(1, 55):
        bound = kannan_tail_bound(c, d0, n)
        for m in range(n + 1, 61):
            assert gap(m, n) <= bound


@pytest.mark.parametrize("c, seed, first, wrapper", [
    (BanachConstants(F(2, 3), F(1, 2), F(1)), F(2, 3), 0, banach_apriori_bound),
    (KannanConstants(F(64, 81), F(16, 81), F(1, 2), F(1), F(1)), F(1, 4), 1,
     kannan_tail_bound),
])
def test_tail_holds_from_the_class_first_index(c, seed, first, wrapper):
    # the one place that states it; the index is checked before the seed
    assert type(c).tail_start == first
    assert wrapper(c, seed, first) == c.tail(seed, first)
    for tail in (c.tail, lambda *a: wrapper(c, *a)):
        for bad_seed in (seed, -1):
            with pytest.raises(ValueError, match=f"^n must be >= {first}$"):
                tail(bad_seed, first - 1)
        with pytest.raises(AdmissibilityError):
            tail(-1, first)


# solving ------------------------------------------------------------------------

def test_solve_banach_linear_fixture_exact():
    fx = banach_linear(EXACT)
    cert = solve_banach(fx.map, fx.spec, fx.graph, fx.constants, fx.solve.x0,
                        TOL)
    assert cert.converged
    assert cert.fixed_point == (F(0),)
    assert cert.residual == 0
    assert cert.iterations <= 60
    assert cert.exact_fixed and cert.snapped
    assert cert.alpha == 2 and cert.initial_gap == F(2, 3)
    assert cert.cf_ok
    assert cert.uniqueness_evidence.weakly_connected


def test_solve_banach_stops_on_the_apriori_bound():
    # the tail bound 2 (2/3)^n reaches tol = 4/3 at the first step
    fx = banach_linear(EXACT)
    cert = solve_banach(fx.map, fx.spec, fx.graph, fx.constants, fx.solve.x0,
                        F(4, 3))
    assert cert.stop_reason == "apriori-bound"
    assert cert.iterations == 1 and cert.bound_at_stop == F(4, 3)


@pytest.mark.parametrize("spec, steps", [
    (power(2), 11), (power(3), 7), (weighted_power(2, (F(1, 2),)), 10)])
def test_solve_snaps_under_an_exponent_above_one(spec, steps):
    # the snap box radius for p > 1 is 2 (bound / w)^(1/p) / b
    fx = banach_linear(EXACT)
    c = BanachConstants(F(1, 2), F(1, 2), F(1))
    cert = solve_banach(fx.map, spec, fx.graph, c, fx.solve.x0, TOL)
    assert cert.iterations == steps
    assert cert.fixed_point == (F(0),)
    assert cert.snapped and cert.exact_fixed


def test_solve_banach_float_backend():
    fx = banach_linear(FLOAT)
    cert = solve_banach(fx.map, fx.spec, fx.graph, fx.constants, fx.solve.x0,
                        1e-9)
    assert cert.converged
    assert abs(cert.fixed_point[0]) < 1e-8
    assert cert.residual <= 2e-9
    assert cert.backend == "float"


def test_solve_banach_already_fixed():
    fx = banach_linear(EXACT)
    cert = solve_banach(fx.map, fx.spec, fx.graph, fx.constants, (F(0),), TOL)
    assert cert.iterations == 0
    assert cert.residual == 0 and cert.stop_reason == "exact-fixed"


def test_solve_banach_isometry_does_not_converge():
    fx = isometry(EXACT)
    cert = solve_banach(fx.map, fx.spec, fx.graph, fx.constants, fx.solve.x0,
                        TOL, max_iter=120)
    assert not cert.converged
    assert cert.stop_reason == "max-iter"
    assert cert.iterations == 120
    assert cert.bound_at_stop > TOL
    assert cert.step_gap_at_stop == 1  # translation never shrinks


@pytest.mark.parametrize("max_iter", [0, -3])
def test_solve_rejects_max_iter_below_one(max_iter):
    # with no step taken, x/3 from 1 and the spike from 1 would pass as fixed
    fb, fk = banach_linear(EXACT), kannan_piecewise(EXACT)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve_banach(fb.map, fb.spec, fb.graph, fb.constants, fb.solve.x0, TOL,
                     max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        solve_kannan(fk.map, fk.spec, fk.graph, fk.constants, (F(1),), TOL,
                     max_iter=max_iter)


def test_solve_kannan_piecewise_from_one():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.map, fx.spec, fx.graph, fx.constants, (F(1),), TOL)
    assert cert.converged
    assert cert.fixed_point == (F(1, 2),)
    assert cert.iterations <= 3
    assert cert.residual == 0
    assert [p[0] for p in cert.trace.points] == [1, F(1, 10), F(1, 2), F(1, 2)]


def test_solve_kannan_piecewise_from_seven():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.map, fx.spec, fx.graph, fx.constants, (F(7),), TOL)
    assert cert.fixed_point == (F(1, 2),)
    assert cert.iterations == 2  # second application certifies the landing


def test_solve_kannan_already_fixed():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.map, fx.spec, fx.graph, fx.constants, (F(1, 2),),
                        TOL)
    assert cert.iterations == 0 and cert.residual == 0


def test_solve_kannan_star_evidence():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.map, fx.spec, fx.graph, fx.constants, (F(1),), TOL)
    ev = cert.uniqueness_evidence
    assert ev.kind == "star"
    assert ev.common_neighbor is not None
    assert ev.rate_below_half is False  # k = 64/81 >= 1/2


def _counting(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    return SelfMap(counted), calls


def _near_simple(backend):
    """x -> x/3 + 1/7 + 10^-15: its fixed point is not the simplest rational
    in the certified ball, so the snap proposal is mapped and rejected."""
    return replace(banach_linear(backend), map=scalar_map(
        lambda t: t / 3 + F(1, 7) + F(1, 10 ** 15)))


# (fixture, x0 or None for the fixture's, cf_depth, snap proposal tested,
#  map calls)
MAP_CALL_CASES = [
    (banach_linear, None, 5, True, 21),       # 20 steps, snap accepted
    (banach_linear, None, 30, True, 31),      # the cf orbit covers every step
    (_near_simple, None, 5, True, 22),        # 20 steps, snap rejected
    (kannan_piecewise, None, 20, False, 21),  # lands exactly after 3 steps
    (kannan_piecewise, (F(7),), 1, False, 3),
    (isometry, None, 3, False, 41),           # max_iter 40, no snap
    (banach_linear, (F(0),), 4, False, 4),    # fixed start: cf_depth calls
]


@pytest.mark.parametrize("make, x0, cf_depth, tested, calls", MAP_CALL_CASES)
def test_solve_steps_its_orbit_once(make, x0, cf_depth, tested, calls):
    """n >= 1 steps map max(cf_depth, n) times, plus one call for a snap
    proposal and one on the returned point unless an accepted snap already
    showed it fixed."""
    fx = make(EXACT)
    f, log = _counting(fx.map)
    c = fx.constants
    solve = solve_banach if c.mode == "banach" else solve_kannan
    cert = solve(f, fx.spec, fx.graph, c, x0 or fx.solve.x0, TOL, max_iter=40,
                 cf_depth=cf_depth)
    assert len(log) == calls
    if cert.iterations:
        assert calls == (max(cf_depth, cert.iterations) + tested
                         + (not cert.snapped))


@pytest.mark.parametrize("cf_depth", [10, 2])
def test_solve_raises_non_finite_before_and_after_cf_depth(cf_depth):
    # 1, 1e100, 1e200, 1e300, then inf at the fourth step
    f = scalar_map(lambda t: t * 1e100)
    c = BanachConstants(2 / 3, 0.5, 1.0)
    with pytest.raises(NonFiniteError):
        solve_banach(f, abs_norm(), make_complete(), c, (1.0,), 1e-9,
                     cf_depth=cf_depth)


def test_certificate_rate_fields():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.map, fx.spec, fx.graph, fx.constants, (F(1),), TOL)
    assert cert.rate == F(16, 17) and cert.alpha is None
    fb = banach_linear(EXACT)
    cert2 = solve_banach(fb.map, fb.spec, fb.graph, fb.constants, fb.solve.x0,
                         TOL)
    assert cert2.rate == F(2, 3) and cert2.alpha == 2


# simplest-rational snapping -------------------------------------------------------

def test_simplest_rational_in_interval():
    assert simplest_rational_in(F(-1, 100), F(1, 50)) == 0
    assert simplest_rational_in(F(21, 10), F(29, 10)) == F(5, 2)
    assert simplest_rational_in(F(5, 2), F(5, 2)) == F(5, 2)
    assert simplest_rational_in(F(-29, 10), F(-21, 10)) == F(-5, 2)
    assert simplest_rational_in(F(31, 10), F(45, 10)) == 4
    assert simplest_rational_in(F(1, 3), F(2, 5)) == F(1, 3)


def _simplest_by_search(lo, hi):
    # smallest denominator first, then the numerator nearest zero
    q = 1
    while True:
        p_lo, p_hi = -((-lo.numerator * q) // lo.denominator), (hi * q) // 1
        if p_lo <= p_hi:
            return F(min(range(p_lo, p_hi + 1), key=abs), q)
        q += 1


def test_simplest_rational_in_matches_denominator_search():
    rng = random.Random(2026)
    for _ in range(300):
        lo = F(rng.randint(-300, 300), rng.randint(1, 40))
        hi = lo + F(rng.randint(0, 30), rng.randint(1, 900))
        assert simplest_rational_in(lo, hi) == _simplest_by_search(lo, hi)
        assert simplest_rational_in(hi, lo) == _simplest_by_search(lo, hi)


def test_simplest_rational_in_deep_interval():
    # Fibonacci ratios have every continued-fraction term equal to 1, the
    # deepest descent per digit: about 2,900 levels at width 1e-1200, past
    # Python's default recursion limit
    a, b = 0, 1
    for _ in range(6000):
        a, b = b, a + b  # a, b = F(6000), F(6001)
    eps = F(1, 2 * 10 ** 1200)
    lo, hi = F(b, a) - eps, F(b, a) + eps
    got = simplest_rational_in(lo, hi)
    assert lo <= got <= hi
    # the answer is the first Fibonacci ratio F(j+1)/F(j) inside the interval
    u, v = 1, 1
    while not lo <= F(v, u) <= hi:
        u, v = v, u + v
    assert got == F(v, u)


def test_snap_rejected_for_non_fixed_proposal():
    # orbit of x -> x/3 + 1/7 converges to 3/14; snapping must not invent a
    # different point: whatever is returned satisfies f(p) = p if exact_fixed
    f = scalar_map(lambda t: t / 3 + F(1, 7))
    c = BanachConstants(F(2, 3), F(1, 2), F(1))
    cert = solve_banach(f, abs_norm(), make_complete(), c, (F(1),), TOL)
    assert cert.converged
    if cert.exact_fixed:
        assert f(cert.fixed_point) == cert.fixed_point
        assert cert.fixed_point == (F(3, 14),)
    # with 10^-15 added, the proposal 3/14 is mapped, is not fixed, and the
    # raw iterate is returned
    fx = _near_simple(EXACT)
    cert = solve_banach(fx.map, fx.spec, fx.graph, fx.constants, fx.solve.x0,
                        TOL)
    assert cert.converged and not cert.snapped and not cert.exact_fixed
    assert cert.residual <= 2 * TOL


# uniqueness machinery ---------------------------------------------------------------

def test_uniqueness_banach_degenerate_path():
    fx = banach_linear(EXACT)
    res = verify_uniqueness_banach(fx.constants, fx.spec, fx.map,
                                   Path(((F(0),), (F(0),))), 3)
    assert res.bound == 0 and res.endpoint_gap == 0


def test_uniqueness_banach_fake_fixed_point_shrinks():
    fx = banach_linear(EXACT)
    path = Path(((F(0),), (F(1, 10),)))
    prev = None
    for n in range(6):
        res = verify_uniqueness_banach(fx.constants, fx.spec, fx.map, path, n,
                                       g=fx.graph)
        assert res.bound == F(2, 3) ** n * F(1, 10)
        assert res.endpoint_gap <= res.pushed_gap_sum <= res.bound
        if prev is not None:
            assert res.bound < prev
        prev = res.bound


def test_uniqueness_banach_n_zero_is_plain_sum():
    fx = banach_linear(EXACT)
    path = Path(((F(0),), (F(1, 2),), (F(1),)))
    res = verify_uniqueness_banach(fx.constants, fx.spec, fx.map, path, 0)
    assert res.bound == F(1, 2) + F(1, 2)


def test_uniqueness_banach_invalid_path_rejected():
    fx = banach_linear(EXACT)
    g = make_custom(lambda x, y: False)
    with pytest.raises(ValueError):
        verify_uniqueness_banach(fx.constants, fx.spec, fx.map,
                                 Path(((F(0),), (F(1),))), 1, g=g)


def test_uniqueness_kannan_bound_arithmetic():
    fx = kannan_small_k(EXACT)
    c = fx.constants
    # lambda = 1/3; rho(b(z - x*)) = 9 for z = 3, x* = 0 under the square modular
    bound = verify_uniqueness_kannan(c, fx.spec, fx.map, (F(0),), (F(3),), 2)
    assert bound == 1
    assert verify_uniqueness_kannan(c, fx.spec, fx.map, (F(0),), (F(0),),
                                    5) == 0


def test_uniqueness_kannan_rejects_large_k():
    fx = kannan_piecewise(EXACT)  # k = 64/81 >= 1/2
    with pytest.raises(AdmissibilityError):
        verify_uniqueness_kannan(fx.constants, fx.spec, fx.map, (F(1, 2),),
                                 (F(3),), 2)
    boundary = KannanConstants(F(1, 2), F(1, 4), F(1, 2), F(1), F(1))
    with pytest.raises(AdmissibilityError):
        verify_uniqueness_kannan(boundary, fx.spec, fx.map, (F(1, 2),),
                                 (F(3),), 2)


def test_uniqueness_kannan_requires_fixed_xstar():
    fx = kannan_small_k(EXACT)
    with pytest.raises(ValueError):
        verify_uniqueness_kannan(fx.constants, fx.spec, fx.map, (F(7),),
                                 (F(3),), 1)


def test_small_k_fixture_really_satisfies_condition():
    from modfix import check_kannan_condition
    fx = kannan_small_k(EXACT)
    pts = [(F(i, 3),) for i in range(-6, 7)] + [(F(1),)]
    pairs = [(x, y) for x in pts for y in pts]
    rep = check_kannan_condition(fx.map, fx.spec, fx.graph, fx.constants,
                                 pairs, backend=EXACT)
    assert rep.ok


# argument checks ----------------------------------------------------------------

FB, FK = banach_linear(EXACT), kannan_piecewise(EXACT)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: picard_orbit(SelfMap(lambda pt: pt + pt), (F(1),), 1),
     DimensionMismatchError, "map changed dimension 1 -> 2"),
    (lambda: picard_orbit(FB.map, FB.solve.x0, -1), ValueError,
     "steps must be >= 0"),
    (lambda: check_cf_membership(FB.map, FB.graph, FB.solve.x0, 0), ValueError,
     "depth must be >= 1"),
    (lambda: solve_banach(FB.map, FB.spec, FB.graph, FB.constants,
                          FB.solve.x0, 0),
     ValueError, "tol must be positive"),
    (lambda: solve_kannan(FK.map, FK.spec, FK.graph, FK.constants,
                          FK.solve.x0, F(-1)),
     ValueError, "tol must be positive"),
    (lambda: verify_uniqueness_banach(FB.constants, FB.spec, FB.map,
                                      Path((FB.solve.x0,)), -1),
     ValueError, "n must be >= 0"),
    (lambda: verify_uniqueness_kannan(FK.constants, FK.spec, FK.map,
                                      (F(1, 2),), FK.solve.x0, -1),
     ValueError, "n must be >= 0"),
])
def test_solver_argument_checks(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message


def test_one_vertex_path_has_zero_uniqueness_bound():
    assert verify_uniqueness_banach(FB.constants, FB.spec, FB.map,
                                    Path((FB.solve.x0,)), 3,
                                    FB.graph) == PathUniquenessBound(0, 0, 0)


@pytest.mark.parametrize("bound", [F(10 ** 400), F(1, 10 ** 400)])
def test_snap_gives_up_when_the_float_radius_leaves_range(bound):
    # p = 2 takes the radius through a float root: 10^400 overflows a
    # double and 10^-400 underflows to a zero radius
    assert _snap_candidate(power(2), F(1), (F(1, 3),), bound) is None
    assert _snap_candidate(abs_norm(), F(1), (F(1, 3),), bound) is not None
