"""Deterministic sample generation.

The generator is splitmix64 (state += 0x9E3779B97F4A7C15, then two xor-shift
multiplies with 0xBF58476D1CE4B9F9 and 0x94D049BB133111EB, final shift 31).
A draw takes the top 53 bits u of one output.  A unit draw is u / 2^53, a
dyadic rational that the exact backend gets as a Fraction and the float
backend as the identical double.  A uniform draw over [lo, hi] is
lo + (hi - lo) * u / 2^53: exact on the exact backend and rounded on the
float backend, so the two agree only where that rounding loses nothing.
Each backend reproduces its draws bit-for-bit from a seed.  The three
constant generators are exact-only and build each draw as one Fraction
straight from integers.
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
_TOP = 1 << 53


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
            return Fraction(u, _TOP)
        return u / float(_TOP)

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


def _scaled_unit(rng: SplitMix64, lo: int, hi: int, den: int,
                 scale: int = 1) -> Fraction:
    """scale * (uniform over [lo/den, hi/den]), as one Fraction."""
    u = rng.next_u64() >> 11
    return Fraction(scale * (lo * _TOP + (hi - lo) * u), den * _TOP)


def admissible_banach_triples(rng: SplitMix64, count: int) -> list:
    """Random fully admissible exact (k, a, b): 0 < k < 1, 0 < a < b, with
    margins so float-backend checks keep strict headroom."""
    out = []
    for _ in range(count):
        b = _scaled_unit(rng, 1, 8, 2)                 # b in [1/2, 4]
        a = b * _scaled_unit(rng, 1, 19, 20)           # a in [b/20, 19b/20]
        k = _scaled_unit(rng, 1, 19, 20)               # k in [1/20, 19/20]
        out.append(BanachConstants(k=k, a=a, b=b))
    return out


def admissible_kannan_tuples(rng: SplitMix64, count: int) -> list:
    """Random fully admissible exact (k, l, a1, a2, b) with k + l < 1
    strictly, a1 <= b/2, a2 <= b."""
    out = []
    for _ in range(count):
        b = _scaled_unit(rng, 1, 8, 2)                 # b in [1/2, 4]
        a1 = b * _scaled_unit(rng, 1, 20, 40)          # a1 in (0, b/2]
        a2 = b * _scaled_unit(rng, 1, 20, 20)          # a2 in (0, b]
        k = _scaled_unit(rng, 1, 18, 20)
        l = (1 - k) * _scaled_unit(rng, 1, 19, 20)
        out.append(KannanConstants(k=k, l=l, a1=a1, a2=a2, b=b))
    return out


def kannan_rescale_inputs(rng: SplitMix64, count: int) -> list:
    """Raw positive exact tuples (k, l, a1, a2, b) with
    b > 4*max(a1, a2, a1k, a2l); k and l may exceed 1 (the rescaling does
    not need k + l < 1)."""
    out = []
    for _ in range(count):
        k = _scaled_unit(rng, 1, 100, 100, 2)
        l = _scaled_unit(rng, 1, 100, 100, 2)
        a1 = _scaled_unit(rng, 1, 100, 100, 3)
        a2 = _scaled_unit(rng, 1, 100, 100, 3)
        m = max(a1, a2, a1 * k, a2 * l)
        b = m * _scaled_unit(rng, 21, 40, 20, 4)       # 4m(1 + [1/20, 1])
        out.append((k, l, a1, a2, b))
    return out
