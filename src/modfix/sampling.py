"""Deterministic sample generation.

The generator is splitmix64 (state += 0x9E3779B97F4A7C15, then two xor-shift
multiplies with 0xBF58476D1CE4B9F9 and 0x94D049BB133111EB, final shift 31).
Uniform draws take the top 53 bits over 2^53, so every sampled value is a
dyadic rational: the exact backend gets it as a Fraction, the float backend
as the identical double, and runs reproduce bit-for-bit from a seed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .backend import Backend, Number
from .contractions import BanachConstants, KannanConstants

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4B9F9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def unit(self, backend: Backend) -> Number:
        """Uniform dyadic rational in [0, 1)."""
        u = self.next_u64() >> 11
        if backend.name == "exact":
            return Fraction(u, 1 << 53)
        return u / float(1 << 53)

    def uniform(self, backend: Backend, lo: Number, hi: Number) -> Number:
        lo = backend.number(lo)
        hi = backend.number(hi)
        return lo + (hi - lo) * self.unit(backend)


def grid_1d(backend: Backend, lo, hi, count: int) -> list:
    if count < 1:
        raise ValueError("grid needs at least one point")
    lo = backend.number(lo)
    hi = backend.number(hi)
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def grid_points(backend: Backend, lo, hi, count: int, dim: int = 1) -> list:
    """Cartesian grid of count^dim points; keep dim small."""
    axis = grid_1d(backend, lo, hi, count)
    return [tuple(c) for c in product(axis, repeat=dim)]


def random_points(rng: SplitMix64, backend: Backend, dim: int, lo, hi,
                  count: int) -> list:
    return [tuple(rng.uniform(backend, lo, hi) for _ in range(dim))
            for _ in range(count)]


def random_pairs(rng: SplitMix64, backend: Backend, dim: int, lo, hi,
                 count: int) -> list:
    pts = random_points(rng, backend, dim, lo, hi, 2 * count)
    return list(zip(pts[::2], pts[1::2]))


def canonical_coeff_pairs(backend: Backend) -> list:
    n = backend.number
    return [(n(1), n(0)), (n(0), n(1)), (n("1/2"), n("1/2")),
            (n("1/4"), n("3/4")), (n("3/4"), n("1/4"))]


def random_coeff_pairs(rng: SplitMix64, backend: Backend, count: int) -> list:
    pairs = []
    for _ in range(count):
        a = rng.unit(backend)
        pairs.append((a, 1 - a))
    return pairs


def _scaled_unit(rng, backend, lo_num, hi_num, den):
    # uniform over [lo/den, hi/den] with positive rational margins
    span = backend.number(Fraction(hi_num - lo_num, den))
    return backend.number(Fraction(lo_num, den)) + span * rng.unit(backend)


def admissible_banach_triples(rng: SplitMix64, backend: Backend,
                              count: int) -> list:
    """Random fully admissible (k, a, b): 0 < k < 1, 0 < a < b, with margins
    so float-backend checks keep strict headroom."""
    out = []
    for _ in range(count):
        b = rng.uniform(backend, "1/2", 4)
        a = b * _scaled_unit(rng, backend, 1, 19, 20)      # a in [b/20, 19b/20]
        k = _scaled_unit(rng, backend, 1, 19, 20)          # k in [1/20, 19/20]
        out.append(BanachConstants(k=k, a=a, b=b))
    return out


def admissible_kannan_tuples(rng: SplitMix64, backend: Backend,
                             count: int) -> list:
    """Random fully admissible (k, l, a1, a2, b) with k + l < 1 strictly,
    a1 <= b/2, a2 <= b."""
    out = []
    for _ in range(count):
        b = rng.uniform(backend, "1/2", 4)
        a1 = (b / 2) * _scaled_unit(rng, backend, 1, 20, 20)  # a1 in (0, b/2]
        a2 = b * _scaled_unit(rng, backend, 1, 20, 20)        # a2 in (0, b]
        k = _scaled_unit(rng, backend, 1, 18, 20)
        l = (1 - k) * _scaled_unit(rng, backend, 1, 19, 20)
        out.append(KannanConstants(k=k, l=l, a1=a1, a2=a2, b=b))
    return out


def kannan_rescale_inputs(rng: SplitMix64, backend: Backend,
                          count: int) -> list:
    """Raw positive tuples (k, l, a1, a2, b) with b > 4*max(a1, a2, a1k, a2l);
    k and l may exceed 1 (the rescaling does not need k + l < 1)."""
    out = []
    for _ in range(count):
        k = 2 * _scaled_unit(rng, backend, 1, 100, 100)
        l = 2 * _scaled_unit(rng, backend, 1, 100, 100)
        a1 = 3 * _scaled_unit(rng, backend, 1, 100, 100)
        a2 = 3 * _scaled_unit(rng, backend, 1, 100, 100)
        m = max(a1, a2, a1 * k, a2 * l)
        b = 4 * m * (1 + _scaled_unit(rng, backend, 1, 20, 20))
        out.append((k, l, a1, a2, b))
    return out
