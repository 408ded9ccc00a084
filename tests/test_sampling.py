"""Deterministic sampling: generator correctness and cross-backend agreement."""

from fractions import Fraction as F

import pytest

from modfix import EXACT, FLOAT
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
    triples = admissible_banach_triples(SplitMix64(11), EXACT, 50)
    assert len(triples) == 50
    for c in triples:
        assert 0 < c.k < 1 and 0 < c.a < c.b


def test_admissible_kannan_tuples_really_admissible():
    tuples = admissible_kannan_tuples(SplitMix64(13), EXACT, 50)
    assert len(tuples) == 50
    for c in tuples:
        assert c.k + c.l < 1 and c.a1 <= c.b / 2 and c.a2 <= c.b


def test_kannan_rescale_inputs_satisfy_relaxed_bound():
    for k, l, a1, a2, b in kannan_rescale_inputs(SplitMix64(17), EXACT, 100):
        assert min(k, l, a1, a2, b) > 0
        assert b > 4 * max(a1, a2, a1 * k, a2 * l)


def test_grid_needs_a_point():
    for count in (0, -3):
        with pytest.raises(ValueError) as e:
            grid_1d(EXACT, -1, 1, count)
        assert str(e.value) == "grid needs at least one point"
