"""Deterministic sampling: generator correctness and cross-backend agreement."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfix import EXACT, FLOAT
from modfix.contractions import (BanachConstants, KannanConstants, _num,
                                 convex_rescale_kannan)
from modfix.errors import AdmissibilityError
from modfix.repro import REPRO_SEED
from modfix.sampling import (SplitMix64, admissible_banach_triples,
                             admissible_kannan_tuples, canonical_coeff_pairs,
                             grid_1d, grid_points, kannan_rescale_inputs,
                             random_coeff_pairs, random_pairs, random_points)

MASK = (1 << 64) - 1


def _reference_stream(seed, count):
    # independently typed restatement of the documented recurrence
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9F9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_generator_matches_documented_recurrence():
    for seed in (0, 1, 42, 2 ** 64 - 1, 0x9E3779B97F4A7C15):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(8)] == _reference_stream(seed, 8)


def test_frozen_first_outputs_for_seed_zero():
    # frozen from the documented recurrence (see _reference_stream)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xB345EDEDD6E9E81E, 0xF92B6C3BE30EBBE6, 0x8E929AD11FBA99CD]


def test_streams_are_deterministic_and_seed_sensitive():
    a = [SplitMix64(7).next_u64() for _ in range(1)]
    b = [SplitMix64(7).next_u64() for _ in range(1)]
    c = [SplitMix64(8).next_u64() for _ in range(1)]
    assert a == b != c


def test_units_are_dyadic_and_backend_agnostic():
    ra, rb = SplitMix64(42), SplitMix64(42)
    for _ in range(200):
        ea = ra.unit(EXACT)
        fb = rb.unit(FLOAT)
        assert isinstance(ea, F) and 0 <= ea < 1
        assert (1 << 53) % ea.denominator == 0  # dyadic
        assert float(ea) == fb


def test_uniform_range_and_exactness():
    rng = SplitMix64(5)
    for _ in range(100):
        v = rng.uniform(EXACT, "-3/2", "5/2")
        assert F(-3, 2) <= v <= F(5, 2)
        assert isinstance(v, F)


@pytest.mark.parametrize("lo, hi, differ", [
    (-2, 2, 0), (-1, 3, 0), ("-3/2", "5/2", 0),
    ("-3/2", "5/3", 1950), ("-5/3", "9/4", 1930), ("1/2", 4, 1605)])
def test_uniform_draws_agree_across_backends_only_where_floats_are_exact(
        lo, hi, differ):
    # the README's Determinism counts: of 2,000 draws from seed 7, how many
    # exact draws differ in value from the float draw of the same step
    ex, fl = SplitMix64(7), SplitMix64(7)
    assert sum(ex.uniform(EXACT, lo, hi) != F(fl.uniform(FLOAT, lo, hi))
               for _ in range(2000)) == differ


def test_grid_exact_spacing():
    g = grid_1d(EXACT, -2, 2, 9)
    assert g[0] == -2 and g[-1] == 2 and len(g) == 9
    assert g[1] - g[0] == F(1, 2)
    assert grid_1d(EXACT, "1/3", 2, 1) == [F(1, 3)]
    pts = grid_points(EXACT, 0, 1, 3, dim=2)
    assert len(pts) == 9 and pts[0] == (F(0), F(0))


def test_random_points_and_pairs_shape():
    rng = SplitMix64(1)
    pts = random_points(rng, EXACT, 2, -1, 1, 10)
    assert len(pts) == 10 and all(len(p) == 2 for p in pts)
    prs = random_pairs(SplitMix64(1), FLOAT, 1, -1, 1, 5)
    assert len(prs) == 5 and all(len(x) == 1 and len(y) == 1 for x, y in prs)


def test_coeff_pairs_sum_to_one():
    for a, b in canonical_coeff_pairs(EXACT):
        assert a + b == 1 and a >= 0 and b >= 0
    rng = SplitMix64(3)
    for a, b in random_coeff_pairs(rng, EXACT, 50):
        assert a + b == 1 and a >= 0 and b >= 0


def test_admissible_banach_triples_really_admissible():
    # constructing BanachConstants revalidates; spot-check margins too
    triples = admissible_banach_triples(SplitMix64(11), 50)
    assert len(triples) == 50
    for c in triples:
        assert 0 < c.k < 1 and 0 < c.a < c.b


def test_admissible_kannan_tuples_really_admissible():
    tuples = admissible_kannan_tuples(SplitMix64(13), 50)
    assert len(tuples) == 50
    for c in tuples:
        assert c.k + c.l < 1 and c.a1 <= c.b / 2 and c.a2 <= c.b


def test_kannan_rescale_inputs_satisfy_relaxed_bound():
    for k, l, a1, a2, b in kannan_rescale_inputs(SplitMix64(17), 100):
        assert min(k, l, a1, a2, b) > 0
        assert b > 4 * max(a1, a2, a1 * k, a2 * l)


def test_grid_needs_a_point():
    for count in (0, -3):
        with pytest.raises(ValueError) as e:
            grid_1d(EXACT, -1, 1, count)
        assert str(e.value) == "grid needs at least one point"


# the draws, generators and rescaling against a reference ------------------
#
# The reference below is the parent code of SplitMix64.unit and .uniform,
# the random samplers, _scaled_unit, the three exact generators and
# convex_rescale_kannan, written as free functions of the generator.  Every
# draw must equal it in value and type (repr also tells -0.0 from 0.0 and a
# float's last bit), raise the same error, and leave the generator at the
# same state.


def ref_unit(rng, backend):
    u = rng.next_u64() >> 11
    if backend.name == "exact":
        return F(u, 1 << 53)
    return u / float(1 << 53)


def ref_uniform(rng, backend, lo, hi):
    lo = backend.number(lo)
    hi = backend.number(hi)
    return lo + (hi - lo) * ref_unit(rng, backend)


def ref_random_points(rng, backend, dim, lo, hi, count):
    return [tuple(ref_uniform(rng, backend, lo, hi) for _ in range(dim))
            for _ in range(count)]


def ref_random_pairs(rng, backend, dim, lo, hi, count):
    pts = ref_random_points(rng, backend, dim, lo, hi, 2 * count)
    return list(zip(pts[::2], pts[1::2]))


def ref_random_coeff_pairs(rng, backend, count):
    pairs = []
    for _ in range(count):
        a = ref_unit(rng, backend)
        pairs.append((a, 1 - a))
    return pairs


def ref_scaled_unit(rng, backend, lo_num, hi_num, den):
    span = backend.number(F(hi_num - lo_num, den))
    return backend.number(F(lo_num, den)) + span * ref_unit(rng, backend)


def ref_admissible_banach_triples(rng, backend, count):
    out = []
    for _ in range(count):
        b = ref_uniform(rng, backend, "1/2", 4)
        a = b * ref_scaled_unit(rng, backend, 1, 19, 20)
        k = ref_scaled_unit(rng, backend, 1, 19, 20)
        out.append(BanachConstants(k=k, a=a, b=b))
    return out


def ref_admissible_kannan_tuples(rng, backend, count):
    out = []
    for _ in range(count):
        b = ref_uniform(rng, backend, "1/2", 4)
        a1 = (b / 2) * ref_scaled_unit(rng, backend, 1, 20, 20)
        a2 = b * ref_scaled_unit(rng, backend, 1, 20, 20)
        k = ref_scaled_unit(rng, backend, 1, 18, 20)
        l = (1 - k) * ref_scaled_unit(rng, backend, 1, 19, 20)
        out.append(KannanConstants(k=k, l=l, a1=a1, a2=a2, b=b))
    return out


def ref_kannan_rescale_inputs(rng, backend, count):
    out = []
    for _ in range(count):
        k = 2 * ref_scaled_unit(rng, backend, 1, 100, 100)
        l = 2 * ref_scaled_unit(rng, backend, 1, 100, 100)
        a1 = 3 * ref_scaled_unit(rng, backend, 1, 100, 100)
        a2 = 3 * ref_scaled_unit(rng, backend, 1, 100, 100)
        m = max(a1, a2, a1 * k, a2 * l)
        b = 4 * m * (1 + ref_scaled_unit(rng, backend, 1, 20, 20))
        out.append((k, l, a1, a2, b))
    return out


def ref_convex_rescale_kannan(k, l, a1, a2, b):
    k, l, a1, a2, b = (_num(v) for v in (k, l, a1, a2, b))
    if any(not v > 0 for v in (k, l, a1, a2, b)):
        raise AdmissibilityError("rescaling inputs must be positive")
    c = 2 * max(a1, a2, a1 * k, a2 * l)
    if not b > 2 * c:
        raise AdmissibilityError(
            f"need b > 4*max(a1, a2, a1*k, a2*l) = {2 * c}, got b={b}")
    a0 = b / 2
    return KannanConstants(k=a1 * k / a0, l=a2 * l / a0, a1=a0, a2=a0, b=b)


def _outcome(fn, *args):
    # repr of the result, or the error's type and text
    try:
        return repr(fn(*args))
    except Exception as e:  # the reference decides which errors are right
        return type(e).__name__, str(e)


def _same_draws(seed, got, want, *args):
    # got(rng, *args) and want(rng, *args) from one seed: the same outcome,
    # and the generator left at the same state
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert _outcome(got, rng, *args) == _outcome(want, ref, *args)
    assert rng.next_u64() == ref.next_u64()


seeds = st.integers(0, 2 ** 64 - 1)
backends = st.sampled_from([EXACT, FLOAT])
fractions = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 6)
# every form a config value takes: int, Fraction, "p/q" and float (with
# -0.0, subnormals, the largest doubles, inf and nan)
bound_values = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), fractions,
    fractions.map(lambda q: f"{q.numerator}/{q.denominator}"), st.floats())


@given(seeds, backends, bound_values, bound_values)
@settings(max_examples=300, deadline=None)
@example(7, EXACT, "-3/2", "5/3")
@example(7, FLOAT, -0.0, 0.0)
@example(1, FLOAT, -1.7e308, 1.7e308)
@example(1, EXACT, 5, F(1, 3))
def test_uniform_matches_the_reference(seed, backend, lo, hi):
    _same_draws(seed, lambda r: r.uniform(backend, lo, hi),
                lambda r: ref_uniform(r, backend, lo, hi))
    _same_draws(seed, lambda r: r.unit(backend), lambda r: ref_unit(r, backend))


@given(seeds, backends, st.integers(1, 3), bound_values, bound_values,
       st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_random_samplers_match_the_reference(seed, backend, dim, lo, hi, count):
    _same_draws(seed, random_points, ref_random_points,
                backend, dim, lo, hi, count)
    _same_draws(seed, random_pairs, ref_random_pairs,
                backend, dim, lo, hi, count)
    _same_draws(seed, random_coeff_pairs, ref_random_coeff_pairs,
                backend, count)


@given(seeds, st.integers(0, 40))
@settings(max_examples=150, deadline=None)
@example(REPRO_SEED + 2, 1000)  # repro's kannan-rescaling draws
def test_exact_generators_match_the_reference(seed, count):
    for got, want in [(admissible_banach_triples, ref_admissible_banach_triples),
                      (admissible_kannan_tuples, ref_admissible_kannan_tuples),
                      (kannan_rescale_inputs, ref_kannan_rescale_inputs)]:
        _same_draws(seed, lambda r: got(r, count),
                    lambda r: want(r, EXACT, count))


rescale_values = st.one_of(
    st.integers(-3, 200), st.fractions(min_value=-1, max_value=200,
                                       max_denominator=1000),
    st.floats(min_value=-1.0, max_value=200.0))


@given(st.tuples(*[rescale_values] * 5) | st.builds(
    lambda seed: kannan_rescale_inputs(SplitMix64(seed), 1)[0], seeds))
@settings(max_examples=300, deadline=None)
@example((F(64, 81), F(16, 81), F(1, 2), F(1), F(9)))
@example((1, 1, 1, 1, 9))
@example((1, 1, 1, 1, 8))
def test_convex_rescale_kannan_matches_the_reference(args):
    assert (_outcome(convex_rescale_kannan, *args)
            == _outcome(ref_convex_rescale_kannan, *args))
