"""Points and modular functionals: evaluation plus sampled falsification of the axioms.

A modular assigns every point of a real coordinate space a nonnegative size
that vanishes exactly at the origin, is symmetric under negation, and is
subadditive along convex combinations; unlike a norm it need not be
homogeneous.  The checkers below are falsifiers over finite samples: an empty
violation list means "no counterexample found on this sample", never a proof.

Builtin families (all evaluate coordinatewise and sum):

* ``abs-norm``       rho(x) = sum_i |x_i|
* ``power``          rho(x) = sum_i |x_i|^p          (p >= 1)
* ``weighted-power`` rho(x) = sum_i w_i |x_i|^p      (w_i > 0, p >= 1)
* ``custom``         any user function, gated by the same axiom sampler

All three builtin families satisfy the convex form of the subadditivity axiom
for p >= 1, so their ``convex`` flag defaults to True.

The samplers, the gap tables of ``bounds`` and ``repro`` (gap_table) and
the condition gaps of ``check`` (exact_gap) evaluate rho on combinations
sum_j c_j x_j of points (a point x is 1 x) through one choice, _exact_rho:
when the points share one dimension and every point and coefficient is an
int or a Fraction, the combination is built on integer numerators over a
common denominator, with the value and type the Fraction operators give; a
custom or expression modular's function is called on it, and a builtin with
an integer exponent and int/Fraction weights stays on the numerators through
rho.  Anything else forms the combination with the number operators, float
bits included.  ``check`` makes one sampler pass (_sampler_pass): rho(x) and
each rho(a x + b y) are formed once, and M4 and the convex form M4' both
read them; on exact values M4' decides lhs <= a rho(x) + b rho(y) by one
cross-multiplication of integer ratios, forming no Fraction unless it fails.
rho_gap, eval_modular and the solver stay on Fraction arithmetic: the kernel
reduces over the lcm of the denominators, Fraction subtraction against their
gcd, so routing rho_gap through it made the exact growth solve, whose
iterates double their bits each step, about 1.5 times as slow.  Each spec
binds its formula once (_formula), which eval_modular and the float gap
column call on validated points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Callable, Optional, Sequence

from .backend import Backend, Number, infer_backend
from .errors import DimensionMismatchError, NonFiniteError

Point = tuple  # tuple[Number, ...]

FAMILIES = ("abs-norm", "power", "weighted-power", "custom")

COEFF_SUM_TOL = 1e-12


def as_point(coords) -> Point:
    """Coerce a scalar or a sequence of numbers into a validated point tuple."""
    if isinstance(coords, (int, float, Fraction)):
        coords = (coords,)
    pt = tuple(coords)
    if not pt:
        raise ValueError("a point needs at least one coordinate")
    for c in pt:
        _require_finite(c)
    return pt


def _require_finite(c) -> None:
    if isinstance(c, float) and not math.isfinite(c):
        raise NonFiniteError(f"non-finite coordinate {c!r}")


def require_point(x) -> Point:
    if not isinstance(x, tuple) or not x:
        raise TypeError(f"expected a nonempty point tuple, got {x!r}")
    for c in x:
        _require_finite(c)
    return x


def zero_like(x: Point) -> Point:
    return tuple(c * 0 for c in x)


@dataclass(frozen=True)
class ModularSpec:
    """Descriptor of a modular functional (builtin family or custom function)."""

    family: str
    p: Number = 1
    weights: Optional[tuple] = None
    convex: bool = True
    fn: Optional[Callable[[Point], Number]] = None
    label: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown modular family {self.family!r}")
        if self.family in ("power", "weighted-power") and not 1 <= self.p < math.inf:
            raise ValueError(f"exponent must be finite and >= 1, got {self.p}")
        if self.family == "weighted-power":
            if not self.weights:
                raise ValueError("weighted-power needs per-coordinate weights")
            object.__setattr__(self, "weights", tuple(self.weights))
            if any(not w > 0 for w in self.weights):
                raise ValueError("weights must be strictly positive")
        if self.family == "custom" and self.fn is None:
            raise ValueError("custom family needs an evaluation function")
        # not a field: repr, equality and hash stay the fields'
        object.__setattr__(self, "_rho", _formula(self))


def abs_norm() -> ModularSpec:
    return ModularSpec("abs-norm", p=1, convex=True, label="sum|x_i|")


def power(p: Number) -> ModularSpec:
    return ModularSpec("power", p=p, convex=True, label=f"sum|x_i|^{p}")


def weighted_power(p: Number, weights: Sequence[Number]) -> ModularSpec:
    return ModularSpec("weighted-power", p=p, weights=tuple(weights), convex=True,
                       label=f"sum w_i|x_i|^{p}")


def custom_modular(fn: Callable[[Point], Number], label: str = "custom",
                   convex: bool = False) -> ModularSpec:
    return ModularSpec("custom", fn=fn, convex=convex, label=label)


def _abs_pow(c: Number, p: Number) -> Number:
    # Integer exponents stay exact for Fraction inputs; anything else goes
    # float.  A float power too large for a double is non-finite.
    ip = int(p)
    try:
        return abs(c) ** ip if ip == p else float(abs(c)) ** float(p)
    except OverflowError:
        raise NonFiniteError(f"|{c!r}|^{p} overflows a double")


def _formula(spec: ModularSpec) -> Callable[[Point], Number]:
    """rho on a validated point of the weights' dimension: ``spec.fn``, or
    ``_abs_pow``'s terms with the integer test made once, weighted and summed
    in order; after an overflow the sum runs again through ``_abs_pow``,
    which raises what it raises."""
    if spec.family == "custom":
        return spec.fn
    if spec.family == "abs-norm":
        return lambda pt: sum(abs(c) for c in pt)
    p, ip = spec.p, int(spec.p)
    integral = ip == p
    ws = spec.weights if spec.family == "weighted-power" else None

    def rho(pt):
        try:
            terms = ([abs(c) ** ip for c in pt] if integral
                     else [float(abs(c)) ** float(p) for c in pt])
            return sum(terms if ws is None else [w * t for w, t in zip(ws, terms)])
        except OverflowError:
            if ws is None:
                return sum(_abs_pow(c, p) for c in pt)
            return sum(w * _abs_pow(c, p) for w, c in zip(ws, pt))
    return rho


def eval_modular(spec: ModularSpec, x: Point) -> Number:
    """Evaluate rho(x).  Nonnegative for every builtin; rho(0) = 0; rho(-x) = rho(x).
    The point and the weights' dimension are checked; ``_formula`` does the rest."""
    pt = require_point(x)
    if spec.family == "weighted-power" and len(spec.weights) != len(pt):
        raise DimensionMismatchError(
            f"point has dimension {len(pt)} but spec has {len(spec.weights)} weights")
    return spec._rho(pt)


def rho_gap(spec: ModularSpec, scale: Number, x: Point, y: Point) -> Number:
    """rho(scale * (x - y)), symmetric in x and y by the negation axiom, with
    the number operators (Fractions on the exact backend); gap_table gives
    the same values over a whole orbit."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    x, y = require_point(x), require_point(y)
    if len(x) != len(y):
        raise DimensionMismatchError(f"dimension mismatch: {len(x)} vs {len(y)}")
    # all differences before any product: an overflow raises what it raised
    diff = [a - b for a, b in zip(x, y)]
    return eval_modular(spec, tuple([scale * d for d in diff]))


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: dict


@dataclass
class AxiomReport:
    checks: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _validated_coeffs(coeff_sample) -> list:
    coeffs = []
    for pair in coeff_sample:
        a, b = pair
        # ints are exact: promote so that later halving stays rational
        a = Fraction(a) if isinstance(a, int) else a
        b = Fraction(b) if isinstance(b, int) else b
        if not (a >= 0 and b >= 0):  # a NaN fails too
            raise ValueError(f"coefficients must be nonnegative, got ({a!r}, {b!r})")
        # exact pairs must sum to exactly 1; floats get a rounding allowance
        total = a + b
        tol = COEFF_SUM_TOL if isinstance(total, float) else 0
        if not abs(total - 1) <= tol:
            raise ValueError(f"coefficient pair must sum to 1, got ({a!r}, {b!r})")
        coeffs.append((a, b))
    return coeffs


def _sample_pairs(pts):
    # Deterministic O(n) pairing; diversity comes from the caller's sampling.
    if len(pts) == 1:
        return [(pts[0], pts[0])]
    return list(zip(pts, pts[1:] + pts[:1]))


def _integer_combination(cs, xs) -> list:
    """The coordinates of sum_k cs[k] xs[k] as (numerator, denominator)
    pairs, every coefficient and coordinate an int or a Fraction.

    Each coordinate adds the c.numerator * v.numerator products over a common
    denominator, grown by the gcd of the denominators as Fraction addition
    does, but never reduced.
    """
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


def _exact_combination(cs, xs) -> Point:
    """sum_k cs[k] xs[k] with one Fraction per coordinate, or an int where no
    coefficient and no coordinate it sums is a Fraction: the value and type
    the Fraction operators give."""
    frac = any(isinstance(c, Fraction) for c in cs)
    # only a Fraction among the inputs gives a denominator other than 1
    return tuple([Fraction(n, d) if d != 1 or frac or any(
        isinstance(x[j], Fraction) for x in xs) else n
        for j, (n, d) in enumerate(_integer_combination(cs, xs))])


def _integer_rho(ip: int, weights: Optional[tuple], cs, xs) -> Number:
    """rho(sum_j cs[j] xs[j]) for a builtin family with integer exponent
    ``ip`` (and ``weights`` for weighted-power), every value an int or a
    Fraction: each coordinate of ``_integer_combination`` is raised to
    ``ip``, weighted and summed over a common denominator the same way, and
    one Fraction is built at the end.  Value and type equal eval_modular's
    on the combination: an int when every input is an int.
    """
    num, den = 0, 1
    for j, (n, d) in enumerate(_integer_combination(cs, xs)):
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


def _exact_rho(spec: ModularSpec, pts, scalars) -> Optional[Callable]:
    """The one choice of exact evaluator for combinations of ``pts`` with
    coefficients from ``scalars``, all ints or Fractions, the points of one
    dimension: ``rho_of(cs, xs)`` = rho(sum_j cs[j] xs[j]) is spec.fn on
    _exact_combination for a custom family, and ``_integer_rho`` for a
    builtin with an integer exponent and int/Fraction weights of the points'
    dimension.  Anything else gets None."""
    dims = {len(x) for x in pts}
    if len(dims) != 1 or not all(isinstance(v, (int, Fraction))
                                 for v in chain(scalars, *pts)):
        return None
    if spec.family == "custom":
        return lambda cs, xs: spec.fn(_exact_combination(cs, xs))
    p = 1 if spec.family == "abs-norm" else spec.p
    weights = spec.weights if spec.family == "weighted-power" else None
    if int(p) == p and (weights is None or dims == {len(weights)} and all(
            isinstance(w, (int, Fraction)) for w in weights)):
        return partial(_integer_rho, int(p), weights)
    return None


def gap_table(spec: ModularSpec, scale: Number, points) -> Callable:
    """``gap(i, j)`` = rho(scale * (points[i] - points[j])), equal in value
    and type to ``rho_gap(spec, scale, points[i], points[j])`` or raising
    what it raises; the scale and the points are validated once.  Each gap
    is ``_exact_rho``'s evaluator on scale x - scale y where it gives one;
    else a builtin on points of the weights' one dimension calls its formula
    on scale * (x - y), whose finite result is rho_gap's (a non-finite
    coordinate makes the sum non-finite); anything else calls rho_gap.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    pts = [require_point(x) for x in points]
    rho_of = _exact_rho(spec, pts, (scale,))
    if rho_of is not None:
        cs = (scale, -scale)
        return lambda i, j: rho_of(cs, (pts[i], pts[j]))
    dims = {len(x) for x in pts}
    if spec.family == "custom" or len(dims) != 1 or (
            spec.family == "weighted-power" and dims != {len(spec.weights)}):
        return lambda i, j: rho_gap(spec, scale, pts[i], pts[j])

    def gap(i, j):
        try:
            r = spec._rho(tuple([scale * (a - b) for a, b in zip(pts[i], pts[j])]))
            if r != math.inf and r == r:
                return r
        except (OverflowError, NonFiniteError):
            pass
        return rho_gap(spec, scale, pts[i], pts[j])
    return gap


def exact_gap(spec: ModularSpec, points, scalars) -> tuple:
    """``(gap, fits)``: ``gap(scale, x, y)`` = rho(scale * (x - y)) for a
    scale from ``scalars`` and points that are ``points`` or pass ``fits``,
    equal in value and type to ``rho_gap(spec, scale, x, y)``: it is
    ``_exact_rho``'s evaluator over ``points`` (nonempty tuples) and
    ``scalars`` on scale x - scale y, and ``fits`` accepts the int/Fraction
    tuples of the points' dimension.  Without that evaluator both are None;
    a scalar that is no int or Fraction says so before ``points`` is read,
    and each point object is read once.
    """
    scalars = tuple(scalars)
    rho_of = None
    if all(isinstance(v, (int, Fraction)) for v in scalars):
        pts = list({id(x): x for x in points}.values())
        if all(isinstance(x, tuple) and x for x in pts):
            rho_of = _exact_rho(spec, pts, scalars)
    if rho_of is None:
        return None, None
    dim = len(pts[0])

    def fits(pt):
        return (isinstance(pt, tuple) and len(pt) == dim
                and all(isinstance(v, (int, Fraction)) for v in pt))
    return lambda s, x, y: rho_of((s, -s), (x, y)), fits


def _sampler(spec: ModularSpec, sample, coeff_sample, backend) -> tuple:
    """The samplers' front end: the validated points, the coefficient pairs,
    the backend and ``rho_of(cs, xs)`` = rho(sum_j cs[j] xs[j]) (rho(x) is
    ``rho_of((1,), (x,))``): ``_exact_rho``'s where it gives one, whatever
    the backend, else eval_modular on the combination formed with the number
    operators, float bits as they always were.  Points of two dimensions
    are a DimensionMismatchError.
    """
    pts = [require_point(p) for p in sample]
    if not pts:
        raise ValueError("empty sample")
    coeffs = _validated_coeffs(coeff_sample)
    dims = sorted({len(x) for x in pts})
    if len(dims) > 1:
        raise DimensionMismatchError(f"dimension mismatch: sample points of "
                                     f"dimensions {dims}")

    def rho_of(cs, xs):
        # formed as the samplers always formed it, so float bits stay:
        # a x + b y for two terms, c x for one, a sum from 0 for more
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
            _exact_rho(spec, pts, chain(*coeffs)) or rho_of)


def _sampler_pass(spec: ModularSpec, sample, coeff_sample,
                  backend: Optional[Backend] = None) -> tuple:
    """check_modular_axioms's report and ``convexity()``, which gives
    check_convexity's from the rho values and M4 combinations of the same
    pass, evaluating none; called after the report is read, it raises what
    and where the samplers raised when each made its own pass."""
    pts, coeffs, be, rho_of = _sampler(spec, sample, coeff_sample, backend)

    violations = []
    checks = 0

    zero = zero_like(pts[0])
    v0 = rho_of((1,), (zero,))
    checks += 1
    if not be.close(v0, 0 * v0):
        violations.append(Violation("M2", {"x": zero, "rho": v0}))
    if be.violates(0, v0):
        violations.append(Violation("M1", {"x": zero, "rho": v0}))

    vals = []  # rho at each sample point, by position
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

    combos = []  # rho(a x + b y) by pair and coefficient, for the convex form
    for (x, y), (rx, ry) in zip(_sample_pairs(pts), _sample_pairs(vals)):
        rhs = rx + ry
        for a, b in coeffs:
            lhs = rho_of((a, b), (x, y))
            combos.append(lhs)
            checks += 1
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "M4", {"x": x, "y": y, "a": a, "b": b, "lhs": lhs, "rhs": rhs}))

    # rho(c x) at every point, once per distinct scalar c, held until the
    # last pair that uses c; keyed by type too, so that an equal float and
    # Fraction are not taken for each other
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

    return (AxiomReport(checks=checks, violations=violations),
            lambda: _convex_form(be, pts, vals, coeffs, iter(combos)))


def _convex_form(be: Backend, pts, vals, coeffs, combos) -> AxiomReport:
    """M4' on each sample pair and coefficient pair, in the samplers' order,
    with lhs = rho(a x + b y) from ``combos`` and rho at each point from
    ``vals``.  On the exact backend, five int/Fraction values decide lhs <=
    a rho(x) + b rho(y) by one cross-multiplication of their integer ratios,
    as the Fraction operators would; only a failure forms the right side
    (0 * inf = 0 where a coefficient is 0) and asks ``be.violates``."""
    exact = be.rel_slack == 0.0
    ratio = lambda v: (v.as_integer_ratio()
                       if exact and type(v) in (int, Fraction) else None)
    coeff_ratios = [(ratio(a), ratio(b)) for a, b in coeffs]
    violations = []
    checks = 0
    for (x, y), (rx, ry), (qx, qy) in zip(
            _sample_pairs(pts), _sample_pairs(vals),
            _sample_pairs([ratio(v) for v in vals])):
        for (a, b), (qa, qb) in zip(coeffs, coeff_ratios):
            lhs = next(combos)
            checks += 1
            if qx and qy and qa and qb and type(lhs) in (int, Fraction):
                (an, ad), (bn, bd), (xn, xd), (yn, yd) = qa, qb, qx, qy
                ln, ld = lhs.as_integer_ratio()
                if ln * ad * bd * xd * yd <= ld * (an * xn * bd * yd
                                                   + bn * yn * ad * xd):
                    continue
            rhs = ((a * rx if a or rx != math.inf else a)
                   + (b * ry if b or ry != math.inf else b))
            if be.violates(lhs, rhs):
                violations.append(Violation(
                    "M4'", {"x": x, "y": y, "a": a, "b": b, "lhs": lhs, "rhs": rhs}))
    return AxiomReport(checks=checks, violations=violations)


def check_modular_axioms(spec: ModularSpec, sample, coeff_sample,
                         backend: Optional[Backend] = None) -> AxiomReport:
    """Hunt for violations of the four modular axioms and their two consequences.

    ``sample`` is a list of points, ``coeff_sample`` a list of pairs (a, b)
    with a, b >= 0 and a + b = 1.  Checked on the sample:

    * M1  rho(x) >= 0
    * M2  rho(x) = 0 exactly when x = 0 (the zero vector is always probed)
    * M3  rho(-x) = rho(x)
    * M4  rho(a x + b y) <= rho(x) + rho(y)
    * scaling monotonicity: |a| <= |b| implies rho(a x) <= rho(b x)
    * multi-term subadditivity over convex coefficient tuples derived from
      the pairs: (a/2, a/2, b) and (a/2, a/2, b/2, b/2) on sliding windows

    rho is evaluated once per sample point (kept by position), negation,
    combination and rescaling by a distinct scalar other than 1, through one
    evaluator (``_sampler``); the right sides of M4 and the multi-term check
    are formed once per sample pair and window.  Returns a report with one
    witness per violated instance.
    """
    return _sampler_pass(spec, sample, coeff_sample, backend)[0]


def check_convexity(spec: ModularSpec, sample, coeff_sample,
                    backend: Optional[Backend] = None) -> AxiomReport:
    """Sampled falsifier for the convex form rho(a x + b y) <= a rho(x) + b rho(y).

    rho is evaluated once per sample point and once per combination, through
    one evaluator (``_sampler``), each combination just before its verdict.
    """
    pts, coeffs, be, rho_of = _sampler(spec, sample, coeff_sample, backend)
    vals = [rho_of((1,), (x,)) for x in pts]
    return _convex_form(be, pts, vals, coeffs, (
        rho_of((a, b), xy) for xy in _sample_pairs(pts) for a, b in coeffs))
