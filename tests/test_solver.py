"""Picard orbits, explicit bounds, certified solving and uniqueness checks."""

import random
from fractions import Fraction as F

import pytest

from modfix import (EXACT, FLOAT, AdmissibilityError, BanachConstants,
                    KannanConstants, NonFiniteError, abs_norm,
                    banach_apriori_bound, check_cf_membership,
                    constant_map, kannan_cauchy_bound, kannan_tail_bound,
                    make_complete, make_custom, make_poset, picard_orbit,
                    rho_gap, scalar_map, simplest_rational_in,
                    solve_banach, solve_kannan, verify_uniqueness_banach,
                    verify_uniqueness_kannan)
from modfix.graphs import Path
from modfix.fixtures import (banach_linear, isometry, kannan_piecewise,
                             kannan_small_k)

TOL = F(1, 10 ** 9)


# orbits -----------------------------------------------------------------------

def test_picard_orbit_linear_exact():
    fx = banach_linear(EXACT)
    trace = picard_orbit(fx.f, (F(1),), 4)
    assert trace.points == [(F(1),), (F(1, 3),), (F(1, 9),), (F(1, 27),),
                            (F(1, 81),)]


def test_picard_orbit_constant_map():
    c = constant_map((F(5),))
    trace = picard_orbit(c, (F(0),), 2)
    assert trace.points == [(F(0),), (F(5),), (F(5),)]


def test_picard_orbit_piecewise():
    fx = kannan_piecewise(EXACT)
    trace = picard_orbit(fx.f, (F(1),), 3)
    assert trace.points == [(F(1),), (F(1, 10),), (F(1, 2),), (F(1, 2),)]


def test_picard_orbit_step_gaps_consistent():
    fx = kannan_piecewise(EXACT)
    trace = picard_orbit(fx.f, (F(1),), 5, spec=fx.spec, bscale=F(1))
    assert trace.step_gaps[0] == F(81, 100)
    assert trace.step_gaps[1] == F(4, 25)
    assert trace.step_gaps[2:] == [0, 0, 0]
    for i in range(len(trace.points) - 1):
        assert trace.step_gaps[i] == rho_gap(fx.spec, F(1),
                                             trace.points[i + 1],
                                             trace.points[i])


def test_picard_orbit_blowup_raises():
    doubler = scalar_map(lambda t: t * 1e308)
    with pytest.raises(NonFiniteError):
        picard_orbit(doubler, (2.0,), 4)


# forward-orbit edge membership --------------------------------------------------

def test_cf_membership_complete_graph():
    fx = banach_linear(EXACT)
    rep = check_cf_membership(fx.f, make_complete(), (F(9),), depth=5)
    assert rep.ok and rep.pairs_checked == 15


def test_cf_membership_order_graph_monotone_orbit():
    fx = banach_linear(EXACT)
    rep = check_cf_membership(fx.f, make_poset(), (F(1),), depth=6)
    assert rep.ok  # orbit 3^-n is totally ordered


def test_cf_membership_failure_witness():
    g = make_custom(lambda x, y: False)
    fx = banach_linear(EXACT)
    rep = check_cf_membership(fx.f, g, (F(1),), depth=4)
    assert not rep.ok
    n, m, pn, pm = rep.failure
    assert (n, m) == (0, 1) and pn == (F(1),) and pm == (F(1, 3),)


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


def test_bound_validity_banach_orbit():
    fx = banach_linear(EXACT)
    c = fx.banach
    orbit = picard_orbit(fx.f, fx.x0, 50).points
    r = rho_gap(fx.spec, c.alpha * c.a, orbit[1], orbit[0])
    assert r == F(2, 3)
    for n in range(1, 50):
        bound = banach_apriori_bound(c, r, n)
        for m in range(n + 1, 51):
            assert rho_gap(fx.spec, c.b, orbit[m], orbit[n]) <= bound


def test_bound_validity_kannan_orbit():
    fx = kannan_piecewise(EXACT)
    c = fx.kannan
    trace = picard_orbit(fx.f, fx.x0, 50, spec=fx.spec, bscale=c.b)
    d0 = trace.step_gaps[0]
    for n in range(1, 51):
        for m in range(1, 51):
            actual = rho_gap(fx.spec, c.b, trace.points[m], trace.points[n])
            assert actual <= kannan_cauchy_bound(c, d0, n, m)


def test_step_gap_geometric_decay():
    fx = kannan_piecewise(EXACT)
    trace = picard_orbit(fx.f, fx.x0, 30, spec=fx.spec, bscale=F(1))
    gaps = trace.step_gaps
    d = fx.kannan.delta
    for i in range(1, len(gaps)):
        assert gaps[i] <= d * gaps[i - 1]


def test_tail_bound_dominates_future_gaps():
    fx = kannan_piecewise(EXACT)
    c = fx.kannan
    trace = picard_orbit(fx.f, fx.x0, 60, spec=fx.spec, bscale=c.b)
    d0 = trace.step_gaps[0]
    for n in range(1, 55):
        bound = kannan_tail_bound(c, d0, n)
        for m in range(n + 1, 61):
            assert rho_gap(fx.spec, c.b, trace.points[m], trace.points[n]) <= bound


# solving ------------------------------------------------------------------------

def test_solve_banach_linear_fixture_exact():
    fx = banach_linear(EXACT)
    cert = solve_banach(fx.f, fx.spec, fx.graph, fx.banach, fx.x0, TOL)
    assert cert.converged
    assert cert.fixed_point == (F(0),)
    assert cert.residual == 0
    assert cert.iterations <= 60
    assert cert.exact_fixed and cert.snapped
    assert cert.alpha == 2 and cert.initial_gap == F(2, 3)
    assert cert.cf_ok
    assert cert.uniqueness_evidence.weakly_connected


def test_solve_banach_without_snap_keeps_raw_iterate():
    fx = banach_linear(EXACT)
    cert = solve_banach(fx.f, fx.spec, fx.graph, fx.banach, fx.x0, TOL,
                        snap=False)
    assert cert.converged and not cert.snapped
    assert cert.fixed_point != (F(0),)
    assert cert.residual <= 2 * TOL


def test_solve_banach_float_backend():
    fx = banach_linear(FLOAT)
    cert = solve_banach(fx.f, fx.spec, fx.graph, fx.banach, fx.x0, 1e-9)
    assert cert.converged
    assert abs(cert.fixed_point[0]) < 1e-8
    assert cert.residual <= 2e-9
    assert cert.backend == "float"


def test_solve_banach_already_fixed():
    fx = banach_linear(EXACT)
    cert = solve_banach(fx.f, fx.spec, fx.graph, fx.banach, (F(0),), TOL)
    assert cert.iterations == 0
    assert cert.residual == 0 and cert.stop_reason == "exact-fixed"


def test_solve_banach_isometry_does_not_converge():
    fx = isometry(EXACT)
    cert = solve_banach(fx.f, fx.spec, fx.graph, fx.banach, fx.x0, TOL,
                        max_iter=120)
    assert not cert.converged
    assert cert.stop_reason == "max-iter"
    assert cert.iterations == 120
    assert cert.bound_at_stop > TOL
    assert cert.step_gap_at_stop == 1  # translation never shrinks


def test_solve_kannan_piecewise_from_one():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.f, fx.spec, fx.graph, fx.kannan, (F(1),), TOL)
    assert cert.converged
    assert cert.fixed_point == (F(1, 2),)
    assert cert.iterations <= 3
    assert cert.residual == 0
    assert [p[0] for p in cert.trace.points] == [1, F(1, 10), F(1, 2), F(1, 2)]


def test_solve_kannan_piecewise_from_seven():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.f, fx.spec, fx.graph, fx.kannan, (F(7),), TOL)
    assert cert.fixed_point == (F(1, 2),)
    assert cert.iterations == 2  # second application certifies the landing


def test_solve_kannan_already_fixed():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.f, fx.spec, fx.graph, fx.kannan, (F(1, 2),), TOL)
    assert cert.iterations == 0 and cert.residual == 0


def test_solve_kannan_star_evidence():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.f, fx.spec, fx.graph, fx.kannan, (F(1),), TOL)
    ev = cert.uniqueness_evidence
    assert ev.kind == "star"
    assert ev.common_neighbor is not None
    assert ev.rate_below_half is False  # k = 64/81 >= 1/2


def test_certificate_rate_fields():
    fx = kannan_piecewise(EXACT)
    cert = solve_kannan(fx.f, fx.spec, fx.graph, fx.kannan, (F(1),), TOL)
    assert cert.rate == F(16, 17) and cert.alpha is None
    fb = banach_linear(EXACT)
    cert2 = solve_banach(fb.f, fb.spec, fb.graph, fb.banach, fb.x0, TOL)
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


# uniqueness machinery ---------------------------------------------------------------

def test_uniqueness_banach_degenerate_path():
    fx = banach_linear(EXACT)
    res = verify_uniqueness_banach(fx.banach, fx.spec, fx.f,
                                   Path(((F(0),), (F(0),))), 3)
    assert res.bound == 0 and res.endpoint_gap == 0


def test_uniqueness_banach_fake_fixed_point_shrinks():
    fx = banach_linear(EXACT)
    path = Path(((F(0),), (F(1, 10),)))
    prev = None
    for n in range(6):
        res = verify_uniqueness_banach(fx.banach, fx.spec, fx.f, path, n,
                                       g=fx.graph)
        assert res.bound == F(2, 3) ** n * F(1, 10)
        assert res.endpoint_gap <= res.pushed_gap_sum <= res.bound
        if prev is not None:
            assert res.bound < prev
        prev = res.bound


def test_uniqueness_banach_n_zero_is_plain_sum():
    fx = banach_linear(EXACT)
    path = Path(((F(0),), (F(1, 2),), (F(1),)))
    res = verify_uniqueness_banach(fx.banach, fx.spec, fx.f, path, 0)
    assert res.bound == F(1, 2) + F(1, 2)


def test_uniqueness_banach_invalid_path_rejected():
    fx = banach_linear(EXACT)
    g = make_custom(lambda x, y: False)
    with pytest.raises(ValueError):
        verify_uniqueness_banach(fx.banach, fx.spec, fx.f,
                                 Path(((F(0),), (F(1),))), 1, g=g)


def test_uniqueness_kannan_bound_arithmetic():
    fx = kannan_small_k(EXACT)
    c = fx.kannan
    # lambda = 1/3; rho(b(z - x*)) = 9 for z = 3, x* = 0 under the square modular
    bound = verify_uniqueness_kannan(c, fx.spec, fx.f, (F(0),), (F(3),), 2)
    assert bound == 1
    assert verify_uniqueness_kannan(c, fx.spec, fx.f, (F(0),), (F(0),), 5) == 0


def test_uniqueness_kannan_decay_dominates_orbit():
    fx = kannan_small_k(EXACT)
    c = fx.kannan
    xstar = (F(0),)
    for z in ((F(3),), (F(1),)):
        orbit = picard_orbit(fx.f, z, 30).points
        for n in range(31):
            actual = rho_gap(fx.spec, c.b, orbit[n], xstar)
            assert actual <= verify_uniqueness_kannan(c, fx.spec, fx.f,
                                                      xstar, z, n)


def test_uniqueness_kannan_rejects_large_k():
    fx = kannan_piecewise(EXACT)  # k = 64/81 >= 1/2
    with pytest.raises(AdmissibilityError):
        verify_uniqueness_kannan(fx.kannan, fx.spec, fx.f, (F(1, 2),),
                                 (F(3),), 2)
    boundary = KannanConstants(F(1, 2), F(1, 4), F(1, 2), F(1), F(1))
    with pytest.raises(AdmissibilityError):
        verify_uniqueness_kannan(boundary, fx.spec, fx.f, (F(1, 2),),
                                 (F(3),), 2)


def test_uniqueness_kannan_requires_fixed_xstar():
    fx = kannan_small_k(EXACT)
    with pytest.raises(ValueError):
        verify_uniqueness_kannan(fx.kannan, fx.spec, fx.f, (F(7),), (F(3),), 1)


def test_small_k_fixture_really_satisfies_condition():
    from modfix import check_kannan_condition
    fx = kannan_small_k(EXACT)
    pts = [(F(i, 3),) for i in range(-6, 7)] + [(F(1),)]
    pairs = [(x, y) for x in pts for y in pts]
    rep = check_kannan_condition(fx.f, fx.spec, fx.graph, fx.kannan, pairs,
                                 backend=EXACT)
    assert rep.ok
