"""Modular evaluation and axiom-falsifier tests."""

import math
from fractions import Fraction
from fractions import Fraction as F
from functools import partial
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfix import (EXACT, FLOAT, DimensionMismatchError, ModfixError,
                    ModularSpec, NonFiniteError, abs_norm, as_point,
                    check_convexity, check_modular_axioms, custom_modular,
                    eval_modular, power, rho_gap, weighted_power)
from modfix.backend import infer_backend
from modfix.modular import (AxiomReport, Violation, _exact_rho, _records,
                            _sample_pairs, _sampler_pass, _validated_coeffs,
                            _value, gap_table, require_point, zero_like)

fractions_small = st.fractions(min_value=-10, max_value=10, max_denominator=40)
points_1d = st.tuples(fractions_small)
points_2d = st.tuples(fractions_small, fractions_small)

COEFFS = [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))]


def test_eval_abs_norm_matches_absolute_value():
    assert eval_modular(abs_norm(), (F(-3),)) == 3
    assert eval_modular(abs_norm(), (3.0,)) == 3.0


def test_eval_power_zero_point():
    assert eval_modular(power(2), (F(0),)) == 0


def test_eval_weighted_power_direct():
    spec = weighted_power(2, (F(1), F(2)))
    assert eval_modular(spec, (F(1), F(1))) == 3  # 1*1^2 + 2*1^2


def test_square_modular_gap_value():
    # image gap of the two-valued fixture map: (1/10 - 1/2)^2 = 4/25
    assert rho_gap(power(2), F(1), (F(1, 10),), (F(1, 2),)) == F(4, 25)


def test_rho_gap_scaling():
    assert rho_gap(abs_norm(), F(1, 2), (F(3),), (F(0),)) == F(3, 2)
    assert rho_gap(abs_norm(), F(1), (F(1),), (F(0),)) == 1


def test_rho_gap_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        rho_gap(abs_norm(), 0, (F(1),), (F(0),))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        rho_gap(abs_norm(), F(1), (F(1),), (F(1), F(2)))
    with pytest.raises(DimensionMismatchError):
        eval_modular(weighted_power(2, (1, 2)), (F(1),))


def test_nonfinite_coordinate_raises():
    with pytest.raises(NonFiniteError):
        eval_modular(abs_norm(), (float("nan"),))
    with pytest.raises(NonFiniteError):
        as_point((float("inf"),))


def test_bound_formula_is_not_a_field():
    # repr, equality and hash are the six fields', as before the formula
    spec = weighted_power(2, (1, F(1, 2)))
    assert repr(spec) == ("ModularSpec(family='weighted-power', p=2, "
                          "weights=(1, Fraction(1, 2)), convex=True, fn=None, "
                          "label='sum w_i|x_i|^2')")
    assert spec == weighted_power(2, (1, F(1, 2))) != power(2)
    assert hash(spec) == hash(weighted_power(2, (1, F(1, 2))))


def test_spec_validation():
    with pytest.raises(ValueError):
        power(F(1, 2))  # exponent below 1
    with pytest.raises(ValueError):
        weighted_power(2, (1, 0))  # nonpositive weight
    with pytest.raises(ValueError):
        weighted_power(2, ())
    with pytest.raises(ValueError):
        power(float("inf"))  # no finite power to take


@pytest.mark.parametrize("spec", [abs_norm(), power(2), power(3)])
def test_builtins_pass_axioms_on_grid(spec):
    sample = [(F(i, 3),) for i in range(-6, 7)]
    report = check_modular_axioms(spec, sample, COEFFS, backend=EXACT)
    assert report.ok
    assert report.checks > 0


def test_weighted_builtin_passes_axioms_2d():
    spec = weighted_power(2, (F(1), F(2)))
    sample = [(F(i, 2), F(j, 3)) for i in range(-2, 3) for j in range(-2, 3)]
    report = check_modular_axioms(spec, sample, COEFFS, backend=EXACT)
    assert report.ok


def test_square_modular_example_sample():
    sample = [(F(v),) for v in (-2, -1, 0, 1, 2)]
    coeffs = [(F(1), F(0)), (F(1, 2), F(1, 2))]
    report = check_modular_axioms(power(2), sample, coeffs, backend=EXACT)
    assert report.ok


def test_broken_modular_reports_m1_and_m2_at_zero():
    broken = custom_modular(lambda pt: pt[0] ** 2 - 1, label="x^2 - 1")
    sample = [(F(v),) for v in (-2, -1, 0, 1, 2)]
    report = check_modular_axioms(broken, sample, COEFFS, backend=EXACT)
    axioms = {v.axiom for v in report.violations}
    assert "M1" in axioms and "M2" in axioms
    zero_witnesses = [v for v in report.violations
                      if v.axiom in ("M1", "M2") and v.witness["x"] == (F(0),)]
    assert zero_witnesses and zero_witnesses[0].witness["rho"] == -1


def test_convexity_passes_for_convex_builtins():
    sample = [(F(i, 2),) for i in range(-5, 6)]
    for spec in (abs_norm(), power(2)):
        assert check_convexity(spec, sample, COEFFS, backend=EXACT).ok


def test_convexity_degenerate_coefficients_hold_with_equality():
    sample = [(F(2),), (F(-3),)]
    report = check_convexity(power(2), sample, [(F(1), F(0))], backend=EXACT)
    assert report.ok


def test_convexity_catches_concave_functional():
    # sqrt-like growth violates the convex inequality between grid points
    concave = custom_modular(lambda pt: float(abs(pt[0])) ** 0.5, label="sqrt")
    sample = [(0.0,), (4.0,)]
    report = check_convexity(concave, sample, [(0.5, 0.5)], backend=FLOAT)
    assert not report.ok


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        check_modular_axioms(abs_norm(), [], COEFFS)


@pytest.mark.parametrize("checker", [check_modular_axioms, check_convexity])
@pytest.mark.parametrize("sample", [
    [(1.0,), (2.0, 3.0)],                           # zip would cut a x + b y
    [(1.0, 2.0), (2.0,), (1.0, 5.0), (3.0, 3.0)],   # was a bare IndexError
    [(F(1),), (F(2), F(3))],
])
def test_sample_of_two_dimensions_rejected(checker, sample):
    with pytest.raises(DimensionMismatchError,
                       match=r"sample points of dimensions \[1, 2\]"):
        checker(abs_norm(), sample, [(0.5, 0.5)])
    # the coefficients are validated first
    with pytest.raises(ValueError, match="must sum to 1"):
        checker(abs_norm(), sample, [(0.5, 0.25)])


def test_float_power_overflow_is_non_finite():
    for spec in (power(2), power(2.5), weighted_power(3, [1.0])):
        with pytest.raises(NonFiniteError):
            eval_modular(spec, (1e200,))
    assert eval_modular(power(2), (F(10) ** 200,)) == F(10) ** 400


def test_float_inequality_verdicts_on_nan_and_inf():
    nan, inf = float("nan"), float("inf")
    assert FLOAT.violates(nan, 1.0) and FLOAT.violates(1.0, nan)
    assert FLOAT.violates(nan, nan) and FLOAT.violates(nan, inf)
    # an infinite modular value keeps its meaning
    assert not FLOAT.violates(1.0, inf) and not FLOAT.violates(inf, inf)
    assert FLOAT.violates(inf, 1.0) and FLOAT.violates(inf, 0.0)
    assert FLOAT.violates(1.0 + 1e-6, 1.0) and not FLOAT.violates(1.0, 1.0)


def test_nan_modular_fails_convexity():
    nan_rho = custom_modular(lambda pt: float("nan"), convex=True)
    report = check_convexity(nan_rho, [(0.0,), (1.0,)], [(0.5, 0.5)],
                             backend=FLOAT)
    assert not report.ok


def test_exact_inequality_verdicts_on_nan():
    nan, inf = float("nan"), float("inf")
    # a NaN on either side violates, as on the float backend
    assert EXACT.violates(nan, F(1)) and EXACT.violates(F(1), nan)
    assert EXACT.violates(nan, nan) and EXACT.violates(nan, inf)
    assert not EXACT.violates(F(1), inf) and not EXACT.violates(inf, inf)
    assert EXACT.violates(inf, F(1)) and not EXACT.violates(F(1), F(1))


# Backend.violates and close against a verbatim copy of the parent: every
# result, or the type and text of every exception, on floats, ints and
# Fractions, a Fraction past double range included

def parent_violates(rel_slack, lhs, rhs):
    if rel_slack == 0.0:
        return not lhs <= rhs
    slack = rel_slack * max(1.0, abs(lhs), abs(rhs))
    return not lhs <= rhs + slack or lhs == math.inf != rhs


def parent_close(rel_slack, u, v):
    return (not parent_violates(rel_slack, u, v)
            and not parent_violates(rel_slack, v, u))


def _verdict(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 -- compared, never swallowed
        return type(e), str(e)


SPECIAL_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  1.7e308, -1.7e308, 1.0, 0, 1, -1, F(1, 3), F(10) ** 400,
                  -F(10) ** 400 / 3]
verdict_values = st.one_of(
    st.sampled_from(SPECIAL_VALUES), st.floats(), st.integers(),
    st.integers(-10 ** 400, 10 ** 400),
    st.fractions(max_denominator=10 ** 6))


@st.composite
def verdict_pairs(draw):
    lhs = draw(verdict_values)
    # half the right sides near the left, within and beyond the slack
    if isinstance(lhs, float) and math.isfinite(lhs) and draw(st.booleans()):
        rhs = lhs * draw(st.sampled_from([1, 1 - 1e-8, 1 - 1e-10, 1 + 1e-10,
                                          1 + 1e-8])) + draw(st.sampled_from(
                                              [0.0, 1e-10, -1e-10, 5e-324]))
    else:
        rhs = draw(verdict_values)
    return draw(st.sampled_from([(lhs, rhs), (rhs, lhs)]))


@given(verdict_pairs())
@settings(max_examples=600, deadline=None)
@example((F(10) ** 400, 1.0))
@example((1.0, F(10) ** 400))
@example((-math.inf, -math.inf))
@example((math.inf, math.inf))
@example((1.7e308, 1.7e308 * (1 + 1e-10)))
def test_verdicts_match_their_parent_copies(pair):
    lhs, rhs = pair
    assert _verdict(FLOAT.violates, lhs, rhs) == \
        _verdict(parent_violates, FLOAT.rel_slack, lhs, rhs)
    assert _verdict(FLOAT.close, lhs, rhs) == \
        _verdict(parent_close, FLOAT.rel_slack, lhs, rhs)
    assert _verdict(EXACT.violates, lhs, rhs) == \
        _verdict(parent_violates, EXACT.rel_slack, lhs, rhs)


def test_a_fraction_past_double_range_overflows_the_float_slack():
    for lhs, rhs in ((F(10) ** 400, 1.0), (0.5, -F(10) ** 400)):
        with pytest.raises(OverflowError):
            FLOAT.violates(lhs, rhs)
        with pytest.raises(OverflowError):
            parent_violates(FLOAT.rel_slack, lhs, rhs)


def test_delta2_free_modular_convexity_takes_zero_times_inf_as_zero():
    # rho(x) = |x|/(1-|x|) for |x| < 1 and +inf otherwise: convex, and
    # without the Delta_2 condition.  Where a coefficient is 0 and the
    # other point has rho = inf, the right side a rho(x) + b rho(y) is
    # 0 * inf; taken as NaN it made 36 false M4' violations on floats
    # (lhs inf, rhs nan) and none on the exact backend.
    def rho(pt):
        t = abs(pt[0])
        return t / (1 - t) if t < 1 else float("inf")

    spec = custom_modular(rho, label="delta2-free", convex=True)
    grid = [F(i, 8) for i in range(-16, 17)]
    for backend, num in ((EXACT, F), (FLOAT, float)):
        sample = [(num(x),) for x in grid]
        coeffs = [(num(a), num(b)) for a, b in COEFFS]
        report = check_convexity(spec, sample, coeffs, backend=backend)
        assert report.checks == 132
        assert report.violations == [], backend.name


def test_bad_coefficients_rejected():
    sample = [(F(1),)]
    with pytest.raises(ValueError):
        check_modular_axioms(abs_norm(), sample, [(F(1, 2), F(1, 3))])
    with pytest.raises(ValueError):
        check_modular_axioms(abs_norm(), sample, [(F(-1), F(2))])
    # within the float rounding allowance, but not an exact convex pair
    with pytest.raises(ValueError):
        check_modular_axioms(abs_norm(), sample, [(F(1), F(1, 10**13))],
                             backend=EXACT)
    with pytest.raises(ValueError):
        check_convexity(abs_norm(), sample, [(1, F(1, 10**13))], backend=EXACT)
    # float pairs keep the allowance for rounding in a + (1 - a)
    assert check_modular_axioms(abs_norm(), [(1.0,)], [(0.5, 0.5 + 1e-13)],
                                backend=FLOAT).ok


# each point-level value is evaluated once --------------------------------

def _counting_modular(fn):
    calls = []

    def rho(pt):
        calls.append(pt)
        return fn(pt)
    return custom_modular(rho, label="counted", convex=True), calls


# the first C of these pairs; their distinct scalars other than 1 number
# 1, 2 and 6 for C = 1, 2, 5
COUNTED_COEFFS = [(F(1, 2), F(1, 2)), (F(1), F(0)), (F(1, 4), F(3, 4)),
                  (F(3, 4), F(1, 4)), (F(1, 3), F(2, 3))]


@pytest.mark.parametrize("n_points", [4, 5, 9])
@pytest.mark.parametrize("n_coeffs", [1, 2, 5])
def test_axiom_checkers_evaluate_rho_once_per_point(n_points, n_coeffs):
    spec, calls = _counting_modular(lambda pt: pt[0] ** 2)
    sample = [(F(i, 3),) for i in range(n_points)]
    coeffs = COUNTED_COEFFS[:n_coeffs]
    N, C = n_points, n_coeffs
    S = len({c for pair in coeffs for c in pair} - {1})
    check_modular_axioms(spec, sample, coeffs, backend=EXACT)
    # zero, rho(x) and rho(-x) per point, one combination per pair and
    # coefficient, one rescaling per point and distinct scalar other than 1,
    # and one combination per multi-term window (N-2 of width 3, N-3 of
    # width 4)
    assert len(calls) == 1 + 2 * N + N * C + S * N + C * (2 * N - 5)
    calls.clear()
    check_convexity(spec, sample, coeffs, backend=EXACT)
    assert len(calls) == N + N * C


def _hump(pt):
    # t^2 on integers, 10 t^2 elsewhere: fails subadditivity at midpoints
    t = pt[0]
    return t * t if t == int(t) else 10 * t * t


@pytest.mark.parametrize("be", [EXACT, FLOAT])
def test_m4_and_multi_term_witness_values(be):
    n = be.number
    sample = [(n(v),) for v in (-1, 0, 1, 2)]
    half = n("1/2")
    rep = check_modular_axioms(custom_modular(_hump), sample, [(half, half)],
                               backend=be)
    got = [(v.axiom, v.witness["lhs"], v.witness["rhs"]) for v in rep.violations]
    assert got == [("M4", n("5/2"), n(1)),        # (-1, 0) -> -1/2
                   ("M4", n("5/2"), n(1)),        # (0, 1)  -> 1/2
                   ("M4", n("45/2"), n(5)),       # (1, 2)  -> 3/2
                   ("multi-term", n("125/8"), n(5))]  # (0, 1, 2) -> 5/4
    assert all(type(lhs) is type(rhs) is type(n(1)) for _, lhs, rhs in got)
    assert rep.violations[2].witness["x"] == (n(1),)
    assert rep.violations[3].witness["points"] == ((n(0),), (n(1),), (n(2),))


@pytest.mark.parametrize("be", [EXACT, FLOAT])
@pytest.mark.parametrize("fn, points, axiom", [
    # |x| + (x > 0) is not even
    (lambda t: abs(t) + (1 if t > 0 else 0), (1, -2), "M3"),
    # 1/(1 + |x|) away from 0 shrinks as |x| grows, so rho(x/4) > rho(3x/4)
    (lambda t: 0 if t == 0 else 1 / (1 + abs(t)), (1, 3), "scaling"),
], ids=["M3", "scaling"])
def test_m3_and_scaling_witnesses(be, fn, points, axiom):
    n = be.number
    sample = [(n(v),) for v in points]
    rep = check_modular_axioms(custom_modular(lambda pt: fn(pt[0])), sample,
                               [(n("1/4"), n("3/4"))], backend=be)
    got = [(v.axiom, v.witness["x"]) for v in rep.violations]
    assert got == [(axiom, x) for x in sample]


@given(points_2d, points_2d)
@settings(max_examples=60)
def test_rho_gap_symmetric(x, y):
    for spec in (abs_norm(), power(2)):
        assert rho_gap(spec, F(1, 2), x, y) == rho_gap(spec, F(1, 2), y, x)


@given(points_1d)
@settings(max_examples=60)
def test_eval_nonnegative_and_even(x):
    for spec in (abs_norm(), power(2), power(3)):
        v = eval_modular(spec, x)
        assert v >= 0
        assert eval_modular(spec, (-x[0],)) == v


@given(st.fractions(min_value=0, max_value=1, max_denominator=30), points_1d)
@settings(max_examples=60)
def test_scaling_monotonicity(a, x):
    b = 1 - a
    lo, hi = min(a, b), max(a, b)
    for spec in (abs_norm(), power(2)):
        assert (eval_modular(spec, (lo * x[0],))
                <= eval_modular(spec, (hi * x[0],)))


@given(st.lists(points_1d, min_size=1, max_size=8))
@settings(max_examples=40)
def test_builtin_axiom_checks_never_flag_violations(sample):
    for spec in (abs_norm(), power(2)):
        assert check_modular_axioms(spec, sample, COEFFS, backend=EXACT).ok
        assert check_convexity(spec, sample, COEFFS, backend=EXACT).ok


# builtins on integer numerators against eval_modular ---------------------

DYADIC = 1 << 53

exact_coords = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6),                                    # plain ints
    st.builds(F, st.integers(-40, 40), st.sampled_from([4, 6, 12])),  # shared
    st.builds(F, st.integers(-40, 40), st.sampled_from([7, 11, 25])),  # coprime
    st.builds(F, st.integers(-2 * DYADIC, 2 * DYADIC), st.just(DYADIC)),
)
unit_fractions = st.one_of(
    st.sampled_from([F(0), F(1), F(1, 2), F(1, 4), F(3, 4)]),
    st.fractions(min_value=0, max_value=1, max_denominator=30),
    st.integers(0, DYADIC).map(lambda n: F(n, DYADIC)),
)


@st.composite
def builtin_cases(draw):
    dim = draw(st.integers(1, 3))
    p = draw(st.sampled_from([1, 2, 3]))
    weights = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=4,
                                         max_denominator=9),
                            min_size=dim, max_size=dim))
    spec = draw(st.sampled_from([abs_norm(), power(p),
                                 weighted_power(p, weights)]))
    sample = draw(st.lists(st.tuples(*[exact_coords] * dim),
                           min_size=1, max_size=6))
    coeffs = [(a, 1 - a) for a in draw(st.lists(unit_fractions, min_size=1,
                                                max_size=3))]
    return spec, sample, coeffs


def _reference(spec):
    # the evaluation every custom modular gets: eval_modular on each point
    return custom_modular(lambda pt: eval_modular(spec, pt), convex=True)


def _same_reports(spec, sample, coeffs, be):
    # repr shows the type of every witness value, which == would not
    for checker in (check_modular_axioms, check_convexity):
        got = checker(spec, sample, coeffs, backend=be)
        want = checker(_reference(spec), sample, coeffs, backend=be)
        assert repr(got) == repr(want)
    # and the same reports as the samplers of the parent, one pass each
    assert _sampler_outcomes(spec, sample, coeffs, be) == \
        _parent_outcomes(spec, sample, coeffs, be)


def _kernel_value(spec, pts, cs, group):
    # rho(sum_k cs[k] pts[group[k]]) from the one exact kernel, over the
    # records of pts, as the samplers, gap_table and condition_gap read it
    return _value(next(_exact_rho(spec, pts, cs)(cs)([group], _records(pts))))


@given(builtin_cases())
@settings(max_examples=40, deadline=None)
def test_integer_evaluation_matches_eval_modular(case):
    spec, sample, coeffs = case
    _same_reports(spec, sample, coeffs, EXACT)
    # the point and every combination the samplers form, value and type,
    # through the kernel on the sample's records
    (a, b), x, y, last = coeffs[0], sample[0], sample[-1], len(sample) - 1
    got, want = _kernel_value(spec, sample, (1,), (0,)), eval_modular(spec, x)
    assert got == want and type(got) is type(want)
    for cs, xs, g in [((-1,), (y,), (last,)), ((a,), (x,), (0,)),
                      ((a, b), (x, y), (0, last)),
                      ((a / 2, a / 2, b), (x, y, x), (0, last, 0))]:
        combo = tuple(sum(c * pt[j] for c, pt in zip(cs, xs))
                      for j in range(len(x)))
        got, want = _kernel_value(spec, sample, cs, g), eval_modular(spec, combo)
        assert got == want and type(got) is type(want)
    # a float point under EXACT, or a float weight, takes eval_modular's
    # float path; on floats an exact verdict sees rounding violations
    floats = [tuple(float(v) for v in pt) for pt in sample]
    float_coeffs = [(float(a), float(b)) for a, b in coeffs]
    _same_reports(spec, floats + sample[:1], coeffs, EXACT)
    _same_reports(spec, floats, float_coeffs, EXACT)
    if spec.family == "weighted-power":
        heavy = weighted_power(spec.p, [float(w) for w in spec.weights])
        _same_reports(heavy, sample, coeffs, EXACT)


def test_float_witness_bits_are_eval_modulars():
    # 0.7 * 0.7 + 0.3 * 0.7 rounds above 0.7 while a rho(x) + b rho(x) does
    # not: the exact verdict on floats sees M4' fail
    sample, coeffs = [(0.7,), (0.7,)], [(0.7, 1 - 0.7)]
    rep = check_convexity(power(2), sample, coeffs, backend=EXACT)
    want = check_convexity(_reference(power(2)), sample, coeffs, backend=EXACT)
    assert repr(rep) == repr(want)
    assert [(v.witness["lhs"], v.witness["rhs"]) for v in rep.violations] == \
        [(0.48999999999999994, 0.4899999999999999)] * 2


# the samplers against verbatim copies of the parent -----------------------
#
# parent_sampler, parent_check_modular_axioms and parent_check_convexity are
# the samplers as they were when each ran its own pass over the sample, and
# parent_exact_rho, parent_integer_rho, parent_integer_combination and
# parent_exact_combination the exact evaluator they chose, as it was when
# each combination read its points' integer ratios again.
# _sampler_outcomes is what `check` reads from _sampler_pass: the axiom
# report, then the convexity report, or the first exception (type and text);
# the parent's `check` ran the two samplers in turn.  Reports are compared by
# repr, which shows every witness value and its type, the order of the
# violations and the number of checks.


def parent_integer_combination(cs, xs) -> list:
    ratios = [c.as_integer_ratio() for c in cs]
    coords = []
    for j in range(len(xs[0])):
        n, d = 0, 1
        for (cn, cd), x in zip(ratios, xs):
            vn, vd = x[j].as_integer_ratio()
            tn, td = cn * vn, cd * vd
            if td == d:
                n += tn
            else:
                g = math.gcd(d, td)
                n, d = n * (td // g) + tn * (d // g), d // g * td
        coords.append((n, d))
    return coords


def parent_exact_combination(cs, xs):
    frac = any(isinstance(c, Fraction) for c in cs)
    # only a Fraction among the inputs gives a denominator other than 1
    return tuple([Fraction(n, d) if d != 1 or frac or any(
        isinstance(x[j], Fraction) for x in xs) else n
        for j, (n, d) in enumerate(parent_integer_combination(cs, xs))])


def parent_integer_rho(ip, weights, cs, xs):
    num, den = 0, 1
    for j, (n, d) in enumerate(parent_integer_combination(cs, xs)):
        if n < 0:
            n = -n
        if ip != 1:
            n, d = n ** ip, d ** ip
        if weights is not None:
            wn, wd = weights[j].as_integer_ratio()
            n, d = n * wn, d * wd
        if d == den:
            num += n
        else:
            g = math.gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
    if den == 1 and not any(isinstance(v, Fraction)
                            for v in chain(cs, *xs, weights or ())):
        return num
    return Fraction(num, den)


def parent_exact_rho(spec, pts, scalars):
    dims = {len(x) for x in pts}
    if len(dims) != 1 or not all(isinstance(v, (int, Fraction))
                                 for v in chain(scalars, *pts)):
        return None
    if spec.family == "custom":
        return lambda cs, xs: spec.fn(parent_exact_combination(cs, xs))
    p = 1 if spec.family == "abs-norm" else spec.p
    weights = spec.weights if spec.family == "weighted-power" else None
    if int(p) == p and (weights is None or dims == {len(weights)} and all(
            isinstance(w, (int, Fraction)) for w in weights)):
        return partial(parent_integer_rho, int(p), weights)
    return None


def parent_sampler(spec, sample, coeff_sample, backend):
    pts = [require_point(p) for p in sample]
    if not pts:
        raise ValueError("empty sample")
    coeffs = _validated_coeffs(coeff_sample)
    dims = sorted({len(x) for x in pts})
    if len(dims) > 1:
        raise DimensionMismatchError(f"dimension mismatch: sample points of "
                                     f"dimensions {dims}")

    def rho_of(cs, xs):
        if len(cs) == 2:
            a, b = cs
            x, y = xs
            combo = [a * u + b * v for u, v in zip(x, y)]
        elif len(cs) == 1:
            combo = [cs[0] * v for v in xs[0]]
        else:
            combo = [sum([c * x[j] for c, x in zip(cs, xs)])
                     for j in range(len(xs[0]))]
        return eval_modular(spec, tuple(combo))
    return (pts, coeffs, backend or infer_backend(pts),
            parent_exact_rho(spec, pts, chain(*coeffs)) or rho_of)


def parent_check_modular_axioms(spec, sample, coeff_sample, backend=None):
    pts, coeffs, be, rho_of = parent_sampler(spec, sample, coeff_sample, backend)

    violations = []
    checks = 0

    zero = zero_like(pts[0])
    v0 = rho_of((1,), (zero,))
    checks += 1
    if not be.close(v0, 0 * v0):
        violations.append(Violation("M2", {"x": zero, "rho": v0}))
    if be.violates(0, v0):
        violations.append(Violation("M1", {"x": zero, "rho": v0}))

    vals = []
    for x in pts:
        vx = rho_of((1,), (x,))
        vals.append(vx)
        vneg = rho_of((-1,), (x,))
        checks += 3
        if be.violates(0, vx):
            violations.append(Violation("M1", {"x": x, "rho": vx}))
        if x != zero_like(x) and not vx > 0:
            violations.append(Violation("M2", {"x": x, "rho": vx}))
        if not be.close(vx, vneg):
            violations.append(Violation("M3", {"x": x, "rho_x": vx, "rho_neg_x": vneg}))

    for (x, y), (rx, ry) in zip(_sample_pairs(pts), _sample_pairs(vals)):
        rhs = rx + ry
        for a, b in coeffs:
            lhs = rho_of((a, b), (x, y))
            checks += 1
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "M4", {"x": x, "y": y, "a": a, "b": b, "lhs": lhs, "rhs": rhs}))

    key = lambda c: (type(c), c)
    last_use = {key(c): i for i, pair in enumerate(coeffs) for c in pair}
    scaled = {}
    for i, (a, b) in enumerate(coeffs):
        lo, hi = (a, b) if a <= b else (b, a)
        for c in (lo, hi):
            if key(c) not in scaled:
                scaled[key(c)] = (vals if c == 1
                                  else [rho_of((c,), (x,)) for x in pts])
        for x, lhs, rhs in zip(pts, scaled[key(lo)], scaled[key(hi)]):
            checks += 1
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "scaling", {"x": x, "lo": lo, "hi": hi, "lhs": lhs, "rhs": rhs}))
        for c in (lo, hi):
            if last_use[key(c)] == i:
                scaled.pop(key(c), None)

    window_sums = {w: [sum(vals[i:i + w]) for i in range(len(pts) - w + 1)]
                   for w in (3, 4)}
    for a, b in coeffs:
        tuples = [(a / 2, a / 2, b), (a / 2, a / 2, b / 2, b / 2)]
        for cs in tuples:
            width = len(cs)
            for i, rhs in enumerate(window_sums[width]):
                window = pts[i:i + width]
                lhs = rho_of(cs, window)
                checks += 1
                if be.violates(lhs, rhs):
                    violations.append(Violation(
                        "multi-term", {"points": tuple(window), "coeffs": cs,
                                       "lhs": lhs, "rhs": rhs}))

    return AxiomReport(checks=checks, violations=violations)


def parent_check_convexity(spec, sample, coeff_sample, backend=None):
    pts, coeffs, be, rho_of = parent_sampler(spec, sample, coeff_sample, backend)

    violations = []
    checks = 0
    vals = [rho_of((1,), (x,)) for x in pts]
    for (x, y), (rx, ry) in zip(_sample_pairs(pts), _sample_pairs(vals)):
        for a, b in coeffs:
            lhs = rho_of((a, b), (x, y))
            rhs = ((a * rx if a or rx != math.inf else a)
                   + (b * ry if b or ry != math.inf else b))
            checks += 1
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "M4'", {"x": x, "y": y, "a": a, "b": b, "lhs": lhs, "rhs": rhs}))
    return AxiomReport(checks=checks, violations=violations)


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


def _sampler_outcomes(spec, sample, coeffs, backend):
    def reports():
        axioms, convexity = _sampler_pass(spec, sample, coeffs, backend)
        yield axioms
        yield convexity()
    return _reports_or_raise(reports())


def _parent_outcomes(spec, sample, coeffs, backend):
    def reports():
        yield parent_check_modular_axioms(spec, sample, coeffs, backend)
        yield parent_check_convexity(spec, sample, coeffs, backend)
    return _reports_or_raise(reports())


def _between_zero_and_one(pt):
    # 1 strictly between 0 and 1 and 0 elsewhere, an int at every point
    return int(0 < abs(pt[0]) < 1)


def _pole_at_half(pt):
    # raises ZeroDivisionError at 1/2 (a combination of 0 and 1), nowhere else
    return abs(1 / (pt[0] - F(1, 2)))


def _delta2_free(pt):
    t = abs(pt[0])
    return t / (1 - t) if t < 1 else float("inf")


# modulars that fail M4' (the hump at midpoints, the square root, the floor
# and the cap at 1 between grid points) beside convex ones; each is a
# function of the point's value
SAMPLER_SPECS = [
    abs_norm(), power(2), power(3), power(F(3, 2)),
    weighted_power(2, [F(1, 2), 3]), weighted_power(2, [0.5, 3.0]),
    custom_modular(_hump, "hump", convex=True),
    custom_modular(lambda pt: float(abs(pt[0])) ** 0.5, "sqrt", convex=True),
    custom_modular(lambda pt: math.floor(abs(pt[0])), "floor", convex=True),
    custom_modular(_delta2_free, "delta2-free", convex=True),
    custom_modular(lambda pt: min(abs(pt[0]), 1), "capped", convex=True),
    # a non-integral float exponent, and weights of the wrong dimension
    power(2.5), weighted_power(2, [0.5, 3.0, 1.0]),
]


@st.composite
def sampler_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    spec = draw(st.sampled_from(SAMPLER_SPECS))
    if spec.family == "weighted-power":
        dim = 2
    coords = draw(st.one_of(guard_coords, st.just(overflow_coords)))
    sample = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=6))
    unit = draw(st.sampled_from([unit_fractions, unit_fractions.map(float)]))
    coeffs = [(a, 1 - a) for a in draw(st.lists(unit, min_size=1, max_size=3))]
    return spec, sample, coeffs, draw(st.sampled_from([None, EXACT, FLOAT]))


@given(sampler_cases())
@settings(max_examples=200, deadline=None)
# M4' fails at the hump's midpoints on an exact sample under EXACT
@example((SAMPLER_SPECS[6], [(F(0),), (F(1),), (F(2),)],
          [(F(1, 2), F(1, 2))], EXACT))
# rho(x) > rho(y): a rho(x) + b rho(y) < lhs = 1 < a rho(x) + b rho(x)
@example((SAMPLER_SPECS[10], [(2,), (0,)], [(F(1, 2), F(1, 2))], EXACT))
# a float point beside exact ones, under EXACT
@example((power(2), [(0.7,), (F(1, 3),)], [(F(1, 4), F(3, 4))], EXACT))
# 0 * inf = 0 where a coefficient is 0, on both number types
@example((SAMPLER_SPECS[9], [(F(1),), (F(1, 2),)], [(F(1), F(0))], None))
@example((SAMPLER_SPECS[9], [(1.0,), (0.5,)], [(1.0, 0.0)], None))
# squares past double range, beside finite ones, under each exponent kind
@example((power(2), [(1e200,), (-1.0,)], [(0.5, 0.5)], FLOAT))
@example((power(2.5), [(0.5, 1e200), (2.0, 1.0)], [(0.25, 0.75)], None))
@example((power(F(3, 2)), [(1.3e308,), (-1.7e308,)], [(0.5, 0.5)], FLOAT))
@example((abs_norm(), [(1.3e308, 1.7e308), (1.0, -1.7e308)], [(1.0, 0.0)],
          FLOAT))
@example((weighted_power(2, [0.5, 3.0]), [(1e200, 0.0)], [(0.5, 0.5)], None))
# weights of the wrong dimension
@example((weighted_power(2, [0.5, 3.0, 1.0]), [(1.0, 2.0)], [(0.5, 0.5)],
          FLOAT))
# an int-only sample on which an int-valued custom modular fails M2 and M4:
# its witness values stay ints
@example((custom_modular(_between_zero_and_one, convex=True),
          [(0,), (1,), (2,)], [(1, 0), (F(1, 2), F(1, 2))], EXACT))
# a 3-D weighted builtin sample, ints and Fractions
@example((weighted_power(2, [F(1, 2), 3, F(2, 3)]),
          [(1, F(-1, 3), 2), (0, 0, F(5, 7)), (F(3, 2), -2, 1)],
          [(F(1, 4), F(3, 4)), (F(2, 3), F(1, 3))], None))
# a custom modular that raises on one combination: the same first exception
@example((custom_modular(_pole_at_half, convex=True), [(0,), (1,), (2,)],
          [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))], EXACT))
def test_samplers_match_their_parent_copies(case):
    spec, sample, coeffs, backend = case
    assert _sampler_outcomes(spec, sample, coeffs, backend) == \
        _parent_outcomes(spec, sample, coeffs, backend)

    def alone(checker):
        yield checker(spec, sample, coeffs, backend=backend)
    # each public sampler on its own
    for checker, parent in ((check_modular_axioms, parent_check_modular_axioms),
                            (check_convexity, parent_check_convexity)):
        assert _reports_or_raise(alone(checker)) == \
            _reports_or_raise(alone(parent))


# every exact combination on integer numerators ---------------------------

exact_coeffs = st.one_of(st.just(-1), st.integers(-5, 5), exact_coords,
                         unit_fractions)
positive_weights = st.one_of(st.integers(1, 3),
                             st.fractions(min_value=F(1, 8), max_value=4,
                                          max_denominator=9))


@st.composite
def combinations(draw):
    dim, terms = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cs = tuple(draw(st.lists(exact_coeffs, min_size=terms, max_size=terms)))
    xs = tuple(draw(st.lists(st.tuples(*[exact_coords] * dim),
                             min_size=terms, max_size=terms)))
    weights = tuple(draw(st.lists(positive_weights, min_size=dim,
                                  max_size=dim)))
    return cs, xs, weights


def _typed(pt):
    return [(v, type(v)) for v in pt]


@given(combinations(), st.sampled_from([2, 3]))
@settings(max_examples=80, deadline=None)
# an integral Fraction makes a Fraction of what would be an int
@example(((F(2), -1), ((3, 1), (1, 2)), (1, 2)), 2)
@example(((-1,), ((F(3), 1),), (1, F(1, 2))), 3)
def test_exact_combination_is_the_fraction_operators(case, p):
    cs, xs, weights = case
    seen = []
    spec = custom_modular(lambda pt: seen.append(pt) or 0)
    group = tuple(range(len(xs)))
    _kernel_value(spec, xs, cs, group)
    want = tuple(sum(c * x[j] for c, x in zip(cs, xs))
                 for j in range(len(xs[0])))
    assert len(seen) == 1 and _typed(seen[0]) == _typed(want)
    for builtin in [abs_norm(), power(p), weighted_power(p, weights)]:
        got, ref = _kernel_value(builtin, xs, cs, group), eval_modular(builtin, want)
        assert got == ref and type(got) is type(ref)


# the gap table of bounds and repro ---------------------------------------

gap_coords = st.sampled_from([
    st.integers(-6, 6),
    exact_coords,                                          # ints and Fractions
    st.floats(-4, 4, allow_nan=False),
    st.one_of(exact_coords, st.floats(-4, 4, allow_nan=False)),  # mixed
])


@st.composite
def gap_cases(draw):
    dim, p = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3]))
    weights = draw(st.lists(st.fractions(min_value=F(1, 8), max_value=4,
                                         max_denominator=9),
                            min_size=dim, max_size=dim))
    spec = draw(st.sampled_from([
        abs_norm(), power(p), weighted_power(p, weights),
        custom_modular(lambda pt: sum(c * c for c in pt) + abs(pt[0]))]))
    coords = draw(gap_coords)
    points = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=5))
    scale = draw(st.one_of(st.integers(1, 3),
                           st.fractions(min_value=F(1, 9), max_value=3,
                                        max_denominator=9)))
    return spec, scale, points


@given(gap_cases())
@settings(max_examples=60, deadline=None)
# an int scale on int points gives an int; a Fraction weight a Fraction
@example((power(2), 2, [(1,), (-3,)]))
@example((weighted_power(3, [F(1, 2), F(3)]), F(1), [(1, 2), (0, F(1, 3))]))
def test_gap_table_is_rho_gap(case):
    spec, scale, points = case
    gap = gap_table(spec, scale, points)
    # the kernel on the records, where the exact evaluator is chosen
    exact = _exact_rho(spec, points, (scale,)) is not None
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            got, want = gap(i, j), rho_gap(spec, scale, x, y)
            assert got == want and type(got) is type(want)
            if exact:
                got = _kernel_value(spec, points, (scale, -scale), (i, j))
                assert got == want and type(got) is type(want)
    # in the order bounds reads them, gap(j, j), gap(j + 1, j), ... from one
    # batch, and on the diagonal, each from a batch of its own
    n = len(points)
    for got, (i, j) in [(gap(i, j), (i, j)) for j in range(n) for i in range(j, n)] + \
            [(gap(i + 1, i), (i + 1, i)) for i in range(n - 1)]:
        want = rho_gap(spec, scale, points[i], points[j])
        assert got == want and type(got) is type(want)


def test_gap_table_batch_calls_a_custom_function_only_where_asked():
    seen = []

    def fn(pt):
        seen.append(pt)
        if pt == (1,):
            raise ZeroDivisionError("pole at 1")
        return pt[0] * pt[0]
    gap = gap_table(custom_modular(fn), 1, [(0,), (F(1, 2),), (1,), (2,)])
    assert gap(1, 0) == F(1, 4) and seen == [(F(1, 2),)]
    with pytest.raises(ZeroDivisionError, match="pole at 1"):
        gap(2, 0)
    # the batch that raised is not read again; past the points is an IndexError
    assert gap(3, 0) == 4 and type(gap(3, 0)) is int
    with pytest.raises(IndexError):
        gap(4, 0)
    assert seen == [(F(1, 2),), (1,), (2,), (2,)]


# the samplers and gap_table against a two-path reference ------------------
#
# The reference below is the sampler and gap-table code in which the exact
# path is chosen twice: _integer_kernel's three-way answer, decoded
# separately by _sampler_rho and gap_table, and samplers with a point
# evaluator beside the combination evaluator.  The samplers and gap_table
# must give the same reports, gaps and modular calls, value, type and order.


def ref_integer_kernel(spec, pts, scalars):
    dims = {len(x) for x in pts}
    if len(dims) != 1 or not all(isinstance(v, (int, Fraction))
                                 for v in chain(scalars, *pts)):
        return None
    p = 1 if spec.family == "abs-norm" else spec.p
    if spec.family == "custom" or int(p) != p:
        return None, None
    weights = spec.weights if spec.family == "weighted-power" else None
    if weights is not None and not (
            dims == {len(weights)}
            and all(isinstance(w, (int, Fraction)) for w in weights)):
        return None, None
    return int(p), weights


def ref_gap_table(spec, scale, points):
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    pts = [require_point(x) for x in points]
    kernel = ref_integer_kernel(spec, pts, (scale,))
    if kernel is None or kernel[0] is None:
        return lambda i, j: rho_gap(spec, scale, pts[i], pts[j])
    ip, weights = kernel
    cs = (scale, -scale)
    return lambda i, j: parent_integer_rho(ip, weights, cs, (pts[i], pts[j]))


def ref_sampler_rho(spec, pts, coeffs):
    kernel = ref_integer_kernel(spec, pts, chain(*coeffs))
    if kernel is not None:
        ip, weights = kernel
        if ip is not None:
            return (lambda x: parent_integer_rho(ip, weights, (1,), (x,)),
                    lambda cs, xs: parent_integer_rho(ip, weights, cs, xs))
        return (lambda x: eval_modular(spec, x),
                lambda cs, xs: eval_modular(spec, parent_exact_combination(cs, xs)))

    def rho_of(cs, xs):
        if len(cs) == 2:
            a, b = cs
            x, y = xs
            combo = [a * u + b * v for u, v in zip(x, y)]
        elif len(cs) == 1:
            combo = [cs[0] * v for v in xs[0]]
        else:
            combo = [sum([c * x[j] for c, x in zip(cs, xs)])
                     for j in range(len(xs[0]))]
        return eval_modular(spec, tuple(combo))
    return lambda x: eval_modular(spec, x), rho_of


def ref_check_modular_axioms(spec, sample, coeff_sample, backend=None):
    pts = [require_point(p) for p in sample]
    if not pts:
        raise ValueError("empty sample")
    coeffs = _validated_coeffs(coeff_sample)
    be = backend or infer_backend(pts)
    rho, rho_of = ref_sampler_rho(spec, pts, coeffs)

    violations = []
    checks = 0

    zero = zero_like(pts[0])
    v0 = rho(zero)
    checks += 1
    if not be.close(v0, 0 * v0):
        violations.append(Violation("M2", {"x": zero, "rho": v0}))
    if be.violates(0, v0):
        violations.append(Violation("M1", {"x": zero, "rho": v0}))

    vals = []
    for x in pts:
        vx = rho(x)
        vals.append(vx)
        vneg = rho_of((-1,), (x,))
        checks += 3
        if be.violates(0, vx):
            violations.append(Violation("M1", {"x": x, "rho": vx}))
        if x != zero_like(x) and not vx > 0:
            violations.append(Violation("M2", {"x": x, "rho": vx}))
        if not be.close(vx, vneg):
            violations.append(Violation("M3", {"x": x, "rho_x": vx, "rho_neg_x": vneg}))

    for (x, y), (rx, ry) in zip(_sample_pairs(pts), _sample_pairs(vals)):
        rhs = rx + ry
        for a, b in coeffs:
            lhs = rho_of((a, b), (x, y))
            checks += 1
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "M4", {"x": x, "y": y, "a": a, "b": b, "lhs": lhs, "rhs": rhs}))

    key = lambda c: (type(c), c)
    last_use = {key(c): i for i, pair in enumerate(coeffs) for c in pair}
    scaled = {}
    for i, (a, b) in enumerate(coeffs):
        lo, hi = (a, b) if a <= b else (b, a)
        for c in (lo, hi):
            if key(c) not in scaled:
                scaled[key(c)] = (vals if c == 1
                                  else [rho_of((c,), (x,)) for x in pts])
        for x, lhs, rhs in zip(pts, scaled[key(lo)], scaled[key(hi)]):
            checks += 1
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "scaling", {"x": x, "lo": lo, "hi": hi, "lhs": lhs, "rhs": rhs}))
        for c in (lo, hi):
            if last_use[key(c)] == i:
                scaled.pop(key(c), None)

    window_sums = {w: [sum(vals[i:i + w]) for i in range(len(pts) - w + 1)]
                   for w in (3, 4)}
    for a, b in coeffs:
        tuples = [(a / 2, a / 2, b), (a / 2, a / 2, b / 2, b / 2)]
        for cs in tuples:
            width = len(cs)
            for i, rhs in enumerate(window_sums[width]):
                window = pts[i:i + width]
                lhs = rho_of(cs, window)
                checks += 1
                if be.violates(lhs, rhs):
                    violations.append(Violation(
                        "multi-term", {"points": tuple(window), "coeffs": cs,
                                       "lhs": lhs, "rhs": rhs}))

    return AxiomReport(checks=checks, violations=violations)


def ref_check_convexity(spec, sample, coeff_sample, backend=None):
    pts = [require_point(p) for p in sample]
    if not pts:
        raise ValueError("empty sample")
    coeffs = _validated_coeffs(coeff_sample)
    be = backend or infer_backend(pts)
    rho, rho_of = ref_sampler_rho(spec, pts, coeffs)

    violations = []
    checks = 0
    vals = [rho(x) for x in pts]
    for (x, y), (rx, ry) in zip(_sample_pairs(pts), _sample_pairs(vals)):
        for a, b in coeffs:
            lhs = rho_of((a, b), (x, y))
            rhs = ((a * rx if a or rx != math.inf else a)
                   + (b * ry if b or ry != math.inf else b))
            checks += 1
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "M4'", {"x": x, "y": y, "a": a, "b": b, "lhs": lhs, "rhs": rhs}))
    return AxiomReport(checks=checks, violations=violations)


signed_zeros = st.sampled_from([0.0, -0.0])
float_coords = st.one_of(signed_zeros, st.floats(-4, 4, allow_nan=False))
# coordinates whose squares or combinations overflow a double
overflow_coords = st.one_of(float_coords, st.sampled_from(
    [1e200, -1e200, 1.5e154, -1.5e154, 1.3e308, -1.7e308]))
guard_coords = st.sampled_from([
    exact_coords,
    float_coords,
    st.one_of(exact_coords, float_coords),                 # mixed
])


@st.composite
def guard_cases(draw):
    dim, p = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3]))
    weights = draw(st.lists(st.one_of(positive_weights, st.floats(0.25, 4)),
                            min_size=dim, max_size=dim))
    spec = draw(st.sampled_from([None, abs_norm(), power(p), power(F(3, 2)),
                                 weighted_power(p, weights)]))
    coords = draw(guard_coords)
    sample = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=6))
    unit = draw(st.sampled_from([unit_fractions, unit_fractions.map(float)]))
    coeffs = [(a, 1 - a) for a in draw(st.lists(unit, min_size=1, max_size=3))]
    scale = draw(st.one_of(st.integers(1, 3),
                           st.fractions(min_value=F(1, 9), max_value=3,
                                        max_denominator=9),
                           st.floats(0.125, 3)))
    backend = draw(st.sampled_from([None, EXACT, FLOAT]))
    return spec, sample, coeffs, scale, backend


def _recording():
    # a custom modular that keeps every point it is given, in call order;
    # repr tells an int from a Fraction and -0.0 from 0.0
    seen = []
    fn = lambda pt: seen.append(repr(pt)) or sum(c * c for c in pt) + abs(pt[0])
    return custom_modular(fn, convex=True), seen


@given(guard_cases())
@settings(max_examples=150, deadline=None)
@example((None, [(-0.0, 0.0)], [(F(1, 2), F(1, 2))], 1, None))
@example((power(2), [(F(1, 3),), (2,)], [(0.25, 0.75)], F(1, 2), EXACT))
@example((None, [(1,), (F(-2, 3),)], [(F(1, 4), F(3, 4))], 2, None))
def test_one_exact_evaluator_matches_the_reference(case):
    spec, sample, coeffs, scale, backend = case
    pairs = [(check_modular_axioms, ref_check_modular_axioms),
             (check_convexity, ref_check_convexity)]
    if spec is None:
        (spec, seen), (ref_spec, ref_seen) = _recording(), _recording()
    else:
        ref_spec, seen, ref_seen = spec, [], []
    for checker, reference in pairs:
        got = checker(spec, sample, coeffs, backend=backend)
        want = reference(ref_spec, sample, coeffs, backend=backend)
        assert repr(got) == repr(want)
        assert seen == ref_seen
    gap = gap_table(spec, scale, sample)
    ref_gap = ref_gap_table(ref_spec, scale, sample)
    for i in range(len(sample)):
        for j in range(len(sample)):
            got, want = gap(i, j), ref_gap(i, j)
            assert got == want and type(got) is type(want)
    assert seen == ref_seen


# the float gap column, eval_modular, rho_gap and format against a reference
#
# The reference below is eval_modular, _abs_pow, rho_gap, the float branch of
# gap_table and Backend.format as they were before each builtin family bound
# its formula once per spec.  Every value (by type and repr, which tells -0.0
# from 0.0) and every exception (by type and message) must be the same.


def ref_abs_pow(c, p):
    ip = int(p)
    try:
        return abs(c) ** ip if ip == p else float(abs(c)) ** float(p)
    except OverflowError:
        raise NonFiniteError(f"|{c!r}|^{p} overflows a double")


def ref_require_point(x):
    if not isinstance(x, tuple) or not x:
        raise TypeError(f"expected a nonempty point tuple, got {x!r}")
    for c in x:
        if isinstance(c, float) and not math.isfinite(c):
            raise NonFiniteError(f"non-finite coordinate {c!r}")
    return x


def ref_eval_modular(spec, x):
    pt = ref_require_point(x)
    if spec.family == "custom":
        return spec.fn(pt)
    if spec.family == "abs-norm":
        return sum(abs(c) for c in pt)
    if spec.family == "power":
        return sum(ref_abs_pow(c, spec.p) for c in pt)
    if len(spec.weights) != len(pt):
        raise DimensionMismatchError(
            f"point has dimension {len(pt)} but spec has {len(spec.weights)} weights")
    return sum(w * ref_abs_pow(c, spec.p) for w, c in zip(spec.weights, pt))


def ref_rho_gap(spec, scale, x, y):
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    x, y = ref_require_point(x), ref_require_point(y)
    if len(x) != len(y):
        raise DimensionMismatchError(f"dimension mismatch: {len(x)} vs {len(y)}")
    diff = tuple(a - b for a, b in zip(x, y))
    return ref_eval_modular(spec, tuple(scale * a for a in diff))


def ref_float_gap_table(spec, scale, points):
    # on int/Fraction values gap_table equals rho_gap too
    # (test_gap_table_is_rho_gap), so one reference serves every input
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    pts = [ref_require_point(x) for x in points]
    return lambda i, j: ref_rho_gap(spec, scale, pts[i], pts[j])


def ref_format(value):
    if isinstance(value, (Fraction, int)):
        return str(value)
    return repr(value)


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (ModfixError, ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return type(value), repr(value)


huge_floats = st.floats(1e154, 1.7e308).flatmap(
    lambda v: st.sampled_from([v, -v]))
small_coords = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-10, max_value=10, max_denominator=40),
    st.sampled_from([0.0, -0.0]), st.floats(-4, 4, allow_nan=False))
bound_coords = st.sampled_from([
    small_coords,
    st.one_of(small_coords, st.integers(10 ** 150, 10 ** 310), huge_floats,
              st.sampled_from([1e308, -1e308, 1.7e308, 1e154, -1.1e154])),
])
bound_weights = st.one_of(
    st.integers(1, 3),
    st.fractions(min_value=F(1, 8), max_value=4, max_denominator=9),
    st.floats(0.125, 4), st.sampled_from([1e-300, 1e300]))


@st.composite
def bound_cases(draw):
    dim = draw(st.integers(1, 3))
    p = draw(st.sampled_from([1, 2, 3, F(3, 2), 2.5]))
    # a weight list one short or one long is a dimension error
    wdim = draw(st.sampled_from([dim, dim, dim, max(dim - 1, 1), dim + 1]))
    weights = draw(st.lists(bound_weights, min_size=wdim, max_size=wdim))
    spec = draw(st.sampled_from([
        abs_norm(), power(p), weighted_power(p, weights),
        custom_modular(lambda pt: sum(c * c for c in pt) + abs(pt[0]))]))
    # most tables share one dimension; some mix two
    dims = draw(st.sampled_from([[dim], [dim], [dim], [dim, dim + 1]]))
    coords = draw(bound_coords)
    points = draw(st.lists(
        st.sampled_from(dims).flatmap(lambda d: st.tuples(*[coords] * d)),
        min_size=1, max_size=5))
    scale = draw(st.one_of(
        st.integers(1, 3),
        st.fractions(min_value=F(1, 9), max_value=3, max_denominator=9),
        st.floats(0.125, 3), st.sampled_from([0, -1, 0.0, 1e300])))
    return spec, scale, points


@given(bound_cases())
@settings(max_examples=300, deadline=None)
# a difference that overflows to inf, and a square that overflows a double
@example((abs_norm(), 1, [(1e308,), (-1e308,)]))
@example((power(2), 1.0, [(1e200,), (0.0,)]))
# an int too large for a double beside a float
@example((power(F(3, 2)), 1, [(10 ** 310, 0.5), (0, 0.25)]))
@example((abs_norm(), 1, [(10 ** 310, 0.5), (0, 0.25)]))
# -inf beside an int too large for a double: rho_gap names the -inf
@example((power(F(3, 2)), 2, [(0, 10 ** 310), (1e308, 0)]))
# a difference and a scaled difference that overflow: the difference's error
@example((abs_norm(), 1.0, [(F(0), 10 ** 310), (10 ** 310, 0.0)]))
# -0.0 kept in a float table; a weight list of the wrong length
@example((power(2), 1, [(-0.0,), (0.0,)]))
@example((weighted_power(2, [1, 2.0]), 1, [(1.5,), (0.5,)]))
def test_float_gap_column_matches_the_reference(case):
    spec, scale, points = case
    want = _outcome(ref_float_gap_table, spec, scale, points)
    if issubclass(want[0], Exception):
        assert _outcome(gap_table, spec, scale, points) == want
        return
    gap, ref_gap = gap_table(spec, scale, points), ref_float_gap_table(
        spec, scale, points)
    values = []  # every gap, to be printed by both backends
    for i, x in enumerate(points):
        assert _outcome(eval_modular, spec, x) == \
            _outcome(ref_eval_modular, spec, x)
        for j, y in enumerate(points):
            want = _outcome(ref_gap, i, j)
            assert _outcome(gap, i, j) == want
            assert _outcome(rho_gap, spec, scale, x, y) == want
            if not issubclass(want[0], Exception):
                values.append(ref_gap(i, j))
    for v in values + [c for x in points for c in x]:
        for be in (EXACT, FLOAT):
            assert be.format(v) == ref_format(v)


# raises and fallbacks of the point and backend helpers ------------------------

@pytest.mark.parametrize("call, exc, message", [
    (lambda: EXACT.number(True), TypeError, "booleans are not numbers"),
    (lambda: FLOAT.number(None), TypeError, "cannot interpret None as a number"),
    (lambda: as_point([]), ValueError, "a point needs at least one coordinate"),
    (lambda: require_point([F(1)]), TypeError,
     "expected a nonempty point tuple, got [Fraction(1, 1)]"),
    (lambda: ModularSpec("cubic"), ValueError, "unknown modular family 'cubic'"),
    (lambda: ModularSpec("custom"), ValueError,
     "custom family needs an evaluation function"),
    # a NaN coefficient is named with its pair, not met later as a coordinate
    (lambda: check_modular_axioms(abs_norm(), [(1.0,), (2.0,)],
                                  [(math.nan, math.nan)]), ValueError,
     "coefficients must be nonnegative, got (nan, nan)"),
    (lambda: check_convexity(abs_norm(), [(1.0,), (2.0,)], [(1.0, math.nan)]),
     ValueError, "coefficients must be nonnegative, got (1.0, nan)"),
])
def test_helper_raises(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message


def test_scalar_point_and_repr_fallback():
    assert as_point(F(1, 2)) == (F(1, 2),) and as_point(2.5) == (2.5,)
    # a value that is no number prints as its repr on either backend
    assert EXACT.format("1/2") == FLOAT.format("1/2") == "'1/2'"
    assert FLOAT.format(None) == "None"
