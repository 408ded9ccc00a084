"""Contraction constants and sampled falsifiers for the defining inequalities.

Two families of edge-restricted contraction conditions are covered:

* displacement form (Banach type):
      rho(b(fx - fy)) <= k rho(a(x - y))        with 0 < k < 1, 0 < a < b
* self-displacement form (Kannan type):
      rho(b(fx - fy)) <= k rho(a1(fx - x)) + l rho(a2(fy - y))
                                      with k + l < 1, a1 <= b/2, a2 <= b

Each constants class carries its family's formulas (right side, seed gap,
rate, tail bound, and a table of two-index bounds that evaluates each
index's terms once), so one checker, one Picard loop and one CLI path serve
both.  Checks walk explicit pair samples (sample generation is the
harness's job; ``check`` walks its sample once for edge preservation and
the condition), report witnesses for every failed instance, and track the
worst lhs/rhs ratio observed.  The convex-rescaling operations turn
constants that only satisfy a relaxed admissibility (b large enough) into
fully admissible tuples, following the substitution a |--> a0 with the
contraction factor scaled by a/a0.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction
from functools import cache, partial
from typing import Callable, ClassVar, Optional

from .backend import Backend, Number, infer_backend
from .errors import AdmissibilityError
from .graphs import SpaceGraph, has_edge
from .modular import ModularSpec, Point, as_point, exact_gap, rho_gap

#: Rationale for the rescaling pivot choices, echoed in harness output.
BANACH_RESCALE_RULE = "a0 = (c+b)/2: midpoint balances the k' < 1 margin against a0 < b"
KANNAN_RESCALE_RULE = ("a0 = b/2: endpoint minimizes k' = a1*k/a0, "
                       "widening the k' < 1/2 uniqueness margin")


def _num(v: Number) -> Number:
    # ints are exact; promote so divisions stay rational
    return Fraction(v) if isinstance(v, int) else v


def _normalize(c) -> None:
    for f in fields(c):
        object.__setattr__(c, f.name, _num(getattr(c, f.name)))


def _tail_index(c, n: int) -> None:
    if n < c.tail_start:  # no bound holds there
        raise ValueError(f"n must be >= {c.tail_start}")


def _seed(c, value: Number) -> Number:
    # a negative seed means the modular is not one; no bound follows from it
    if value < 0:
        raise AdmissibilityError(f"seed value {c.seed_label} must be nonnegative")
    return value


@dataclass(frozen=True)
class BanachConstants:
    """Displacement-form constants and the formulas the checker, the solver
    and the bound table share: seed r = rho(alpha a (fx0 - x0)), rate k."""

    k: Number
    a: Number
    b: Number

    mode: ClassVar[str] = "banach"
    seed_label: ClassVar[str] = "r"
    rate_label: ClassVar[str] = "k"
    tail_start: ClassVar[int] = 0  # the first n at which ``tail`` is a bound

    def __post_init__(self):
        _normalize(self)
        if not (0 < self.k < 1):
            raise AdmissibilityError(f"need 0 < k < 1, got k={self.k}")
        if not (0 < self.a < self.b):
            raise AdmissibilityError(f"need 0 < a < b, got a={self.a}, b={self.b}")

    @property
    def alpha(self) -> Number:
        """Exponential conjugate of b/a: the alpha > 1 with a/b + 1/alpha = 1."""
        return self.b / (self.b - self.a)

    @property
    def rate(self) -> Number:
        return self.k

    def rhs(self, gap: Callable, x: Point, y: Point, fx: Point, fy: Point) -> Number:
        """k rho(a(x - y)), with rho(s(u - v)) = gap(s, u, v)."""
        return self.k * gap(self.a, x, y)

    def seed_gap(self, spec: ModularSpec, x0: Point, fx0: Point) -> Number:
        """r = rho(alpha a (fx0 - x0))."""
        return rho_gap(spec, self.alpha * self.a, fx0, x0)

    def tail(self, r: Number, n: int) -> Number:
        """k^n r / (1-k): bounds rho(b(f^m x - f^n x)) for every m > n >= 0."""
        _tail_index(self, n)
        return self.k ** n * _seed(self, r) / (1 - self.k)

    def pair_table(self, r: Number, depth: int) -> Callable[[int, int], Number]:
        """(n, m) -> tail(r, n) for 1 <= n, m <= depth, one tail per n."""
        r = _seed(self, r)
        tails = {n: self.tail(r, n) for n in range(1, depth + 1)}
        return lambda n, m: tails[n]


@dataclass(frozen=True)
class KannanConstants:
    """Self-displacement-form constants and their shared formulas: seed
    d0 = rho(b(fx0 - x0)), rate delta = l/(1-k)."""

    k: Number
    l: Number
    a1: Number
    a2: Number
    b: Number

    mode: ClassVar[str] = "kannan"
    seed_label: ClassVar[str] = "d0"
    rate_label: ClassVar[str] = "delta"
    tail_start: ClassVar[int] = 1  # the first n at which ``tail`` is a bound

    def __post_init__(self):
        _normalize(self)
        if any(not v > 0 for v in (self.k, self.l, self.a1, self.a2, self.b)):
            raise AdmissibilityError("all Kannan constants must be positive")
        if not self.k + self.l < 1:
            raise AdmissibilityError(f"need k + l < 1, got {self.k} + {self.l}")
        if not self.a1 <= self.b / 2:
            raise AdmissibilityError(f"need a1 <= b/2, got a1={self.a1}, b={self.b}")
        if not self.a2 <= self.b:
            raise AdmissibilityError(f"need a2 <= b, got a2={self.a2}, b={self.b}")

    @property
    def delta(self) -> Number:
        """Per-step decay rate l/(1-k) of the orbit gaps, in (0, 1)."""
        return self.l / (1 - self.k)

    rate = delta

    @property
    def uniqueness_rate(self) -> Number:
        """lambda = k/(1-k); below 1 exactly when k < 1/2."""
        return self.k / (1 - self.k)

    @property
    def k_below_half(self) -> bool:
        return 2 * self.k < 1

    @property
    def a2_within_half_b(self) -> bool:
        """Stricter a2 <= b/2 needed to transfer the condition to the
        undirected graph by role interchange; reported, never enforced."""
        return self.a2 <= self.b / 2

    def rhs(self, gap: Callable, x: Point, y: Point, fx: Point, fy: Point) -> Number:
        """k rho(a1(fx - x)) + l rho(a2(fy - y)), with rho(s(u - v)) =
        gap(s, u, v)."""
        return self.k * gap(self.a1, fx, x) + self.l * gap(self.a2, fy, y)

    def seed_gap(self, spec: ModularSpec, x0: Point, fx0: Point) -> Number:
        """d0 = rho(b(fx0 - x0))."""
        return rho_gap(spec, self.b, fx0, x0)

    def tail(self, d0: Number, n: int) -> Number:
        """(k delta^n + l delta^(n-1)) d0: bounds rho(b(f^m x - f^n x)) for
        every m > n >= 1, by the condition at (f^(m-1) x, f^(n-1) x) and the
        step-gap chain rho(b(f^i x - f^(i-1) x)) <= delta^(i-1) d0.  Without
        the Delta2-condition no bound holds at n = 0 (see the README)."""
        _tail_index(self, n)
        d = self.delta
        return (self.k * d ** n + self.l * d ** (n - 1)) * _seed(self, d0)

    def pair_table(self, d0: Number, depth: int) -> Callable[[int, int], Number]:
        """(n, m) -> k delta^(m-1) d0 + l delta^(n-1) d0 for 1 <= n, m <=
        depth: the condition at (f^(m-1) x, f^(n-1) x) with a1, a2 <= b and
        the step-gap chain.  Both terms of each index are computed once, each
        with its own power of delta (a running product would change float
        bits), so an entry is one addition."""
        d, d0 = self.delta, _seed(self, d0)
        indices = range(1, depth + 1)
        k_terms = {i: self.k * d ** (i - 1) * d0 for i in indices}
        l_terms = {i: self.l * d ** (i - 1) * d0 for i in indices}
        return lambda n, m: k_terms[m] + l_terms[n]


@dataclass(frozen=True)
class SelfMap:
    fn: Callable[[Point], Point]
    description: str = ""

    def __call__(self, x: Point) -> Point:
        return self.fn(x)


def scalar_map(fn: Callable[[Number], Number], description: str = "") -> SelfMap:
    """Wrap a scalar function as a one-dimensional self map."""
    return SelfMap(lambda pt: (fn(pt[0]),), description)


def affine_map(p: Number, q: Number, description: str = "") -> SelfMap:
    p, q = _num(p), _num(q)
    return SelfMap(lambda pt: tuple(p * c + q for c in pt),
                   description or f"x -> {p}*x + {q}")


def constant_map(value) -> SelfMap:
    v = as_point(value)
    return SelfMap(lambda pt: v, f"constant {v}")


@dataclass(frozen=True)
class PairViolation:
    x: Point
    y: Point
    lhs: Optional[Number]
    rhs: Optional[Number]


@dataclass
class ContractionReport:
    condition: str
    pairs_checked: int
    violations: list = field(default_factory=list)
    max_ratio: Optional[Number] = None
    a2_within_half_b: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def _directed_edges(g: SpaceGraph, pairs, image, violations=None):
    """Yield (x, y, (image(x), image(y)) or None if no has_edge(g, x, y));
    with ``violations``, a failed has_edge(g, fx, fy) is appended to it."""
    for x, y in pairs:
        images = (image(x), image(y)) if has_edge(g, x, y) else None
        if images and violations is not None and not has_edge(g, *images):
            violations.append(PairViolation(x, y, None, None))
        yield x, y, images


class _WalkedPairs(list):
    """A pair sample with edge preservation's one walk of it by map f and
    graph g: each pair's (x, y, images), the cache that mapped each distinct
    point once (equal points, float 0.0 and -0.0 say, share one image: f is
    a function of the point's value) and the report.  The condition with
    the same f and g reads the walk in place of a second one."""

    def __init__(self, f: SelfMap, g: SpaceGraph, sample):
        super().__init__(sample)
        self.f, self.g, self.image = f, g, cache(f)
        violations = []
        self.edges = list(_directed_edges(g, self, self.image, violations))
        checked = sum(images is not None for *_, images in self.edges)
        self.report = ContractionReport("edge-preservation", checked, violations)


def check_edge_preservation(f: SelfMap, g: SpaceGraph, sample) -> ContractionReport:
    """For every sampled directed edge (x, y), require (fx, fy) to be an edge,
    mapping each distinct point once (f must be a function)."""
    return _WalkedPairs(f, g, sample).report


def _check_condition(f: SelfMap, spec: ModularSpec, g: SpaceGraph, c, sample,
                     use_undirected: bool,
                     backend: Optional[Backend]) -> ContractionReport:
    """Sample lhs = rho(b(fx - fy)) <= rhs = c.rhs(...) on the edge pairs.

    max_ratio is the largest lhs/rhs over pairs with rhs > 0 (an empirical
    contraction factor; <= 1 everywhere exactly when no violation is
    possible on the sample).  Each distinct point of the edge pairs is
    mapped once (f must be a function of the point's value).  The gaps come
    from ``exact_gap``, chosen once over the sample's points and the
    constants, where both images pass its test, and from rho_gap otherwise:
    the same values either way.  A ``_WalkedPairs`` sample of f and g adds
    only the swapped edge test of an undirected check, the images of the
    pairs only it admits, and the gaps.
    """
    consts = astuple(c)
    be = backend or infer_backend([consts, sample])
    walked = isinstance(sample, _WalkedPairs) and sample.f is f and sample.g is g
    pairs = sample if walked else list(sample)  # read for its points first
    fast, fits = exact_gap(spec, (p for x, y in pairs for p in (x, y)), consts)
    image = pairs.image if walked else cache(f)
    slow = partial(rho_gap, spec)
    violations = []
    checked = 0
    max_ratio = None
    for x, y, images in (pairs.edges if walked
                         else _directed_edges(g, pairs, image)):
        if images is None:
            if not (use_undirected and has_edge(g, y, x)):
                continue
            images = image(x), image(y)
        fx, fy = images
        checked += 1
        gap = fast if fits is not None and fits(fx) and fits(fy) else slow
        lhs = gap(c.b, fx, fy)
        rhs = c.rhs(gap, x, y, fx, fy)
        if rhs > 0:
            ratio = lhs / rhs
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        if be.violates(lhs, rhs):
            violations.append(PairViolation(x, y, lhs, rhs))
    return ContractionReport(c.mode, checked, violations, max_ratio,
                             getattr(c, "a2_within_half_b", None))


def check_banach_condition(f: SelfMap, spec: ModularSpec, g: SpaceGraph,
                           c: BanachConstants, sample,
                           use_undirected: bool = False,
                           backend: Optional[Backend] = None) -> ContractionReport:
    """Sample the displacement inequality rho(b(fx - fy)) <= k rho(a(x - y))
    on edge pairs, mapping each distinct point once (f must be a function)."""
    return _check_condition(f, spec, g, c, sample, use_undirected, backend)


def check_kannan_condition(f: SelfMap, spec: ModularSpec, g: SpaceGraph,
                           c: KannanConstants, sample,
                           use_undirected: bool = False,
                           backend: Optional[Backend] = None) -> ContractionReport:
    """Sample the self-displacement inequality
    rho(b(fx - fy)) <= k rho(a1(fx - x)) + l rho(a2(fy - y)) on edge pairs,
    mapping each distinct point once (f must be a function)."""
    return _check_condition(f, spec, g, c, sample, use_undirected, backend)


def estimate_banach_k(f: SelfMap, spec: ModularSpec, g: SpaceGraph,
                      a: Number, b: Number, sample) -> Optional[Number]:
    """Empirical sup of rho(b(fx-fy)) / rho(a(x-y)) over sampled edge pairs.

    None when no sampled edge pair has a positive denominator.  A value below
    1 means the displacement condition holds on this sample with that factor.
    """
    # k = 1/2 scales every ratio by a power of two, which is exact on both
    # backends, so halving the checker's max_ratio gives the sup bit for bit
    half = Fraction(1, 2)
    ratio = _check_condition(f, spec, g, BanachConstants(half, a, b), sample,
                             False, None).max_ratio
    return None if ratio is None else ratio * half


def convex_rescale_banach(k: Number, a: Number, b: Number) -> BanachConstants:
    """Admissible displacement constants from a relaxed triple on a convex modular.

    Requires k, a, b > 0 and b > max(a, a*k).  With c = max(a, a*k) and the
    midpoint pivot a0 = (c+b)/2, returns (k', a0, b) where k' = a*k/a0 < 1.
    Only sound when the modular in use passed the convexity sampler; that
    gate is the caller's duty.
    """
    k, a, b = _num(k), _num(a), _num(b)
    if not (k > 0 and a > 0 and b > 0):
        raise AdmissibilityError("rescaling inputs must be positive")
    c = max(a, a * k)
    if not b > c:
        raise AdmissibilityError(f"need b > max(a, a*k) = {c}, got b={b}")
    a0 = (c + b) / 2
    return BanachConstants(k=a * k / a0, a=a0, b=b)


def convex_rescale_kannan(k: Number, l: Number, a1: Number, a2: Number,
                          b: Number) -> KannanConstants:
    """Admissible self-displacement constants from a relaxed tuple on a convex modular.

    Requires positive inputs with b > 4*max(a1, a2, a1*k, a2*l).  With
    c = 2*max(...) and the endpoint pivot a0 = b/2, returns
    (a1*k/a0, a2*l/a0, a0, a0, b); the new factor sum is below 1 and the new
    k' is below 1/2 (see ``k_below_half`` on the result), which is what the
    uniqueness argument needs.
    """
    k, l, a1, a2, b = (_num(v) for v in (k, l, a1, a2, b))
    if any(not v > 0 for v in (k, l, a1, a2, b)):
        raise AdmissibilityError("rescaling inputs must be positive")
    a1k, a2l = a1 * k, a2 * l
    c = 2 * max(a1, a2, a1k, a2l)
    if not b > 2 * c:
        raise AdmissibilityError(
            f"need b > 4*max(a1, a2, a1*k, a2*l) = {2 * c}, got b={b}")
    a0 = b / 2
    return KannanConstants(k=a1k / a0, l=a2l / a0, a1=a0, a2=a0, b=b)
