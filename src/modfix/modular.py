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
the condition gaps of ``check`` (condition_gap) evaluate rho on combinations
sum_j c_j x_j through one choice, _exact_rho: where the points share one
dimension and all points and coefficients are ints or Fractions, each point
is read once into integer numerators over one denominator (_records), and
one kernel (_kernel) builds each kind of combination in a batch on them,
through rho for a builtin with an integer exponent and int/Fraction weights,
and with the Fraction operators' value and type for a custom function.  The
samplers judge every verdict on integer ratios by sign and
cross-multiplication, forming a Fraction only for a witness.  Anything else
forms the combination with the number operators, float bits included; a
builtin of the weights' dimension calls its formula (_formula) on it
unvalidated (_formula_first), asking eval_modular or rho_gap only after an
overflow, inf or NaN.  rho_gap, eval_modular and the solver stay on Fraction
arithmetic: integer numerators reduced only at the end made the exact growth
solve, whose iterates double their bits each step, about 1.5 times as slow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
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
            if ws is None:
                return sum([abs(c) ** ip for c in pt] if integral
                           else [float(abs(c)) ** float(p) for c in pt])
            return sum([w * abs(c) ** ip for w, c in zip(ws, pt)] if integral
                       else [w * float(abs(c)) ** float(p) for w, c in zip(ws, pt)])
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


def _records(pts) -> tuple:
    """``(cols, den, pts)`` for int/Fraction points of one dimension, each
    read once: cols[j][i] is pts[i][j]'s numerator over the one ``den``."""
    qs, dim = [c.as_integer_ratio() for x in pts for c in x], len(pts[0])
    den = math.lcm(*[d for _, d in qs])
    return [[n * (den // d) for n, d in qs[j::dim]] for j in range(dim)], den, pts


def _value(t):
    n, d, v = t  # an exact item's number: v, else Fraction(n, d)
    return Fraction(n, d) if v is None and d else v


def _kernel(form, cs) -> Callable:
    """``values(groups, recs)`` iterates rho(sum_k cs[k] x_k) over groups of
    indices k -> x_k into ``_records`` ``recs`` as exact items (n, d, v): n / d
    the value, d > 0, v the value if an int.  For a builtin's ``form`` (ip,
    weight numerators, their denominator, any Fraction weight) a kind is one
    batch, column by column on numerators over one denominator, no gcd and
    no Fraction; a custom ``form`` is called lazily on each combination as
    the Fraction operators give it (n, d None and v its odd result)."""
    qs = [c.as_integer_ratio() for c in cs]
    cd = math.lcm(*[d for _, d in qs])
    ms = [n * (cd // d) for n, d in qs]
    frac = any(isinstance(c, Fraction) for c in cs)
    fracs = lambda g, pts, j: any(isinstance(pts[i][j], Fraction) for i in g)

    def points(groups, recs):
        cols, den, pts = recs
        d = cd * den
        for g in groups:
            ns = [sum([m * col[i] for m, i in zip(ms, g)]) for col in cols]
            r = form(tuple([Fraction(n, d) if frac or fracs(g, pts, j) else n // d
                            for j, n in enumerate(ns)]))
            yield ((r, 1, r) if type(r) is int else (r.numerator, r.denominator, None)
                   if type(r) is Fraction else (None, None, r))
    if callable(form):
        return points
    ip, ws, wd, wfrac = form

    def values(groups, recs):
        cols, den, pts = recs
        acc = [0] * len(groups)
        for w, col in zip(ws, cols):
            acc = [a + w * abs(sum([m * col[i] for m, i in zip(ms, g)])) ** ip
                   for a, g in zip(acc, groups)]
        d = wd * (cd * den) ** ip
        return iter([(a, d, None if frac or wfrac or any(
            fracs(g, pts, j) for j in range(len(cols))) else a // d)
            for a, g in zip(acc, groups)])
    return values


def _exact_rho(spec: ModularSpec, pts, scalars) -> Optional[Callable]:
    """The one choice of exact evaluator for combinations of ``pts``, of one
    dimension, with coefficients from ``scalars``, all ints or Fractions:
    ``_kernel`` on spec.fn for a custom family, or on the form of a builtin
    with an integer exponent and int/Fraction weights of that dimension."""
    dims = {len(x) for x in pts}
    if len(dims) != 1 or not all(isinstance(v, (int, Fraction))
                                 for v in chain(scalars, *pts)):
        return None
    if spec.family == "custom":
        return partial(_kernel, spec.fn)
    p = 1 if spec.family == "abs-norm" else spec.p
    weights = spec.weights if spec.family == "weighted-power" else (1,) * dims.pop()
    if int(p) != p or len(weights) != len(pts[0]) or not all(
            isinstance(w, (int, Fraction)) for w in weights):
        return None
    qs = [w.as_integer_ratio() for w in weights]
    wd = math.lcm(*[d for _, d in qs])
    return partial(_kernel, (int(p), [n * (wd // d) for n, d in qs], wd,
                             any(isinstance(w, Fraction) for w in weights)))


def _exact_ops(be: Backend) -> tuple:
    """The samplers' ops on exact items: ratios judged by sign and cross-
    multiplication on the exact backend, summed and scaled on integers."""
    exact = be.rel_slack == 0.0

    def bad(l, r):
        if exact and l[1] and r[1]:
            return l[0] * r[1] > r[0] * l[1]
        return be.violates(_value(l), _value(r))

    def add(u, w):
        if u[1] and w[1]:
            return (u[0] * w[1] + w[0] * u[1], u[1] * w[1],
                    u[2] + w[2] if type(u[2]) is int is type(w[2]) else None)
        return None, None, _value(u) + _value(w)

    def mul(c, t):  # coefficient times value, with 0 * inf = 0
        if t[1]:
            n, d = c.as_integer_ratio()
            return n * t[0], d * t[1], None
        v = _value(t)
        return None, None, c * v if c or v != math.inf else c

    zero = (0, 1, 0)
    return (bad, lambda u, w: not bad(u, w) and not bad(w, u), add,
            lambda ts: reduce(add, ts, zero), mul,
            lambda t: t[0] > 0 if t[1] else _value(t) > 0, _value, zero)


def _number_ops(be: Backend) -> tuple:
    """``_exact_ops``'s verdicts, sums and values on the values themselves."""
    mul = lambda c, v: c * v if c or v != math.inf else c  # 0 * inf = 0
    return (be.violates, be.close, lambda u, w: u + w, sum, mul,
            lambda v: v > 0, lambda v: v, 0)


def _formula_first(spec: ModularSpec, dims, combine: Callable,
                   validating: Callable) -> Callable:
    """``value(*args)`` = ``validating(*args)``, rho at ``combine(*args)``
    after validating that point, for a builtin whose weights fit ``dims``,
    the validated points' one dimension (else ``validating`` itself): a
    finite, non-NaN formula value is that, since weights > 0 make the sum at
    a non-finite coordinate non-finite; an overflow, inf or NaN asks it."""
    if spec.family == "custom" or len(dims) != 1 or (
            spec.family == "weighted-power" and dims != {len(spec.weights)}):
        return validating
    rho, inf = spec._rho, math.inf

    def value(*args):
        try:
            r = rho(combine(*args))
        except (OverflowError, NonFiniteError):
            return validating(*args)
        return r if r != inf and r == r else validating(*args)
    return value


def gap_table(spec: ModularSpec, scale: Number, points) -> Callable:
    """``gap(i, j)`` = rho_gap(spec, scale, points[i], points[j]) in value
    and type, or what it raises, the scale and the points validated once:
    ``_exact_rho``'s kernel on scale x - scale y over the points' records
    (gap(i, j), gap(i + 1, j), ... in one batch), else condition_gap's."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    pts = [require_point(x) for x in points]
    kernel = _exact_rho(spec, pts, (scale,))
    if kernel is not None:
        # run: the (i, j) that the open batch gives next, and the batch
        values, recs, run = kernel((scale, -scale)), _records(pts), [None, None]

        def gap(i, j):
            if run[0] != (i, j):
                run[1] = values([(k, j) for k in range(i, len(pts))]
                                or [(i, j)], recs)
            run[0] = None
            t = next(run[1])
            run[0] = (i + 1, j) if i + 1 < len(pts) else None
            return _value(t)
        return gap
    gap = condition_gap(spec, pts, (scale,))[0] or partial(rho_gap, spec)
    return lambda i, j: gap(scale, pts[i], pts[j])


def condition_gap(spec: ModularSpec, points, scalars) -> tuple:
    """``(gap, fits)`` on either backend: ``gap(s, x, y)`` = rho_gap(spec, s,
    x, y) in value and type, or what it raises, for s in ``scalars`` and x, y
    in ``points`` (nonempty tuples) or passing ``fits``: ``_exact_rho``'s
    kernel on s x - s y over x's and y's records on int/Fraction scalars,
    ``fits`` taking the int/Fraction tuples of the points' dimension; else
    _formula_first's on s (x - y), ``fits`` taking tuples of that dimension;
    else None twice.  Only a builtin or exact scalars read ``points``, once."""
    scalars = tuple(scalars)
    exact = all(isinstance(v, (int, Fraction)) for v in scalars)
    if not exact and spec.family == "custom":
        return None, None
    pts = list({id(x): x for x in points}.values())
    if not all(isinstance(x, tuple) and x for x in pts):
        return None, None
    kernel, slow = exact and _exact_rho(spec, pts, scalars), partial(rho_gap, spec)
    # one kernel per scalar; ks holds every s, so no other object has its id
    ks = kernel and {id(s): kernel((s, -s)) for s in scalars}
    gap = (lambda s, x, y: _value(next((ks.get(id(s)) or kernel((s, -s)))(
        ((0, 1),), _records((x, y)))))) if kernel else (
        _formula_first(spec, {len(x) for x in pts}, lambda s, x, y: tuple(
            [s * (a - b) for a, b in zip(x, y)]), slow))
    if gap is slow:
        return None, None
    dim = len(pts[0])
    return gap, lambda pt: isinstance(pt, tuple) and len(pt) == dim and (
        not kernel or all(isinstance(v, (int, Fraction)) for v in pt))


def _sampler(spec: ModularSpec, sample, coeff_sample, backend) -> tuple:
    """The samplers' front end: the validated points, the coefficient pairs,
    ``column(cs, groups)`` = rho(sum_k cs[k] x_k) over groups of indices
    k -> x_k into the points (the origin at -1), and its ops: ``_exact_rho``'s
    kernel on the points' records with ``_exact_ops`` where it gives one,
    whatever the backend, else ``_formula_first`` on the combination formed
    with the number operators (float bits as they always were), eval_modular
    behind it, with ``_number_ops``.  Two dimensions raise."""
    pts = [require_point(p) for p in sample]
    if not pts:
        raise ValueError("empty sample")
    coeffs = _validated_coeffs(coeff_sample)
    dims = {len(x) for x in pts}
    if len(dims) > 1:
        raise DimensionMismatchError(f"dimension mismatch: sample points of "
                                     f"dimensions {sorted(dims)}")
    be, probe = backend or infer_backend(pts), pts + [zero_like(pts[0])]
    kernel = _exact_rho(spec, probe, chain(*coeffs))
    if kernel:
        recs = _records(probe)
        return pts, coeffs, lambda cs, groups: kernel(cs)(groups, recs), _exact_ops(be)

    def combine(cs, xs):
        # formed as the samplers always formed it, so float bits stay:
        # a x + b y for two terms, c x for one, a sum from 0 for more
        if len(cs) == 2:
            (a, b), (x, y) = cs, xs
            return tuple([a * u + b * v for u, v in zip(x, y)])
        if len(cs) == 1:
            return tuple([cs[0] * v for v in xs[0]])
        return tuple([sum([c * x[j] for c, x in zip(cs, xs)])
                      for j in range(len(xs[0]))])

    rho_of = _formula_first(spec, dims, combine,
                            lambda *a: eval_modular(spec, combine(*a)))
    xs_of = {}  # each groups list (kept, so its id stays) and its points

    def column(cs, groups):
        if id(groups) not in xs_of:
            xs_of[id(groups)] = groups, [tuple([probe[i] for i in g]) for g in groups]
        return map(partial(rho_of, cs), xs_of[id(groups)][1])
    return pts, coeffs, column, _number_ops(be)


def _sampler_pass(spec: ModularSpec, sample, coeff_sample,
                  backend: Optional[Backend] = None) -> tuple:
    """check_modular_axioms's report and ``convexity()``, which gives
    check_convexity's from the rho values and M4 combinations of the same
    pass, evaluating none; called after the report is read, it raises what
    and where the samplers raised when each made its own pass."""
    pts, coeffs, column, ops = _sampler(spec, sample, coeff_sample, backend)
    bad, close, add, total, mul, pos, val, zero = ops
    singles = [(i,) for i in range(len(pts))]
    violations = []
    checks = 0

    (v0,), origin = column((1,), [(-1,)]), zero_like(pts[0])
    checks += 1
    if not close(v0, mul(0, v0)):
        violations.append(Violation("M2", {"x": origin, "rho": val(v0)}))
    if bad(zero, v0):
        violations.append(Violation("M1", {"x": origin, "rho": val(v0)}))

    vals = []  # rho at each sample point, by position
    for x, vx, vneg in zip(pts, column((1,), singles), column((-1,), singles)):
        vals.append(vx)
        checks += 3
        if bad(zero, vx):
            violations.append(Violation("M1", {"x": x, "rho": val(vx)}))
        if any(x) and not pos(vx):
            violations.append(Violation("M2", {"x": x, "rho": val(vx)}))
        if not close(vx, vneg):
            violations.append(Violation(
                "M3", {"x": x, "rho_x": val(vx), "rho_neg_x": val(vneg)}))

    combos = []  # rho(a x + b y) by pair and coefficient, for the convex form
    pairs = _sample_pairs(list(range(len(pts))))
    m4 = [column(ab, pairs) for ab in coeffs]
    for (x, y), (rx, ry) in zip(_sample_pairs(pts), _sample_pairs(vals)):
        rhs = add(rx, ry)
        for (a, b), col in zip(coeffs, m4):
            lhs = next(col)
            combos.append(lhs)
            checks += 1
            if bad(lhs, rhs):
                violations.append(Violation("M4", {
                    "x": x, "y": y, "a": a, "b": b, "lhs": val(lhs), "rhs": val(rhs)}))

    # rho(c x) at every point, one column per distinct scalar c, held until
    # the last pair that uses c; keyed by type too, so that an equal float and
    # Fraction are not taken for each other
    key = lambda c: (type(c), c)
    last_use = {key(c): i for i, pair in enumerate(coeffs) for c in pair}
    scaled = {}
    for i, (a, b) in enumerate(coeffs):
        lo, hi = (a, b) if a <= b else (b, a)
        for c in (lo, hi):
            if key(c) not in scaled:
                scaled[key(c)] = vals if c == 1 else list(column((c,), singles))
        for x, lhs, rhs in zip(pts, scaled[key(lo)], scaled[key(hi)]):
            checks += 1
            if bad(lhs, rhs):
                violations.append(Violation("scaling", {
                    "x": x, "lo": lo, "hi": hi, "lhs": val(lhs), "rhs": val(rhs)}))
        for c in (lo, hi):
            if last_use[key(c)] == i:
                scaled.pop(key(c), None)

    windows = {w: [tuple(range(i, i + w)) for i in range(len(pts) - w + 1)]
               for w in (3, 4)}
    sums = {w: [total([vals[i] for i in g]) for g in gs] for w, gs in windows.items()}
    for a, b in coeffs:
        for cs in [(a / 2, a / 2, b), (a / 2, a / 2, b / 2, b / 2)]:
            groups = windows[len(cs)]
            for g, rhs, lhs in zip(groups, sums[len(cs)], column(cs, groups)):
                checks += 1
                if bad(lhs, rhs):
                    violations.append(Violation("multi-term", {
                        "points": tuple([pts[i] for i in g]), "coeffs": cs,
                        "lhs": val(lhs), "rhs": val(rhs)}))

    return (AxiomReport(checks=checks, violations=violations),
            lambda: _convex_form(ops, pts, vals, coeffs, iter(combos)))


def _convex_form(ops, pts, vals, coeffs, combos) -> AxiomReport:
    """M4' on each sample pair and coefficient pair, in the samplers' order,
    lhs = rho(a x + b y) from ``combos`` and rho at each point from ``vals``,
    in ``ops``'s arithmetic, 0 * inf = 0 where a coefficient is 0."""
    bad, _, add, _, mul, _, val, _ = ops
    violations = []
    checks = 0
    for (x, y), (rx, ry) in zip(_sample_pairs(pts), _sample_pairs(vals)):
        for a, b in coeffs:
            lhs = next(combos)
            checks += 1
            rhs = add(mul(a, rx), mul(b, ry))
            if bad(lhs, rhs):
                violations.append(Violation("M4'", {
                    "x": x, "y": y, "a": a, "b": b, "lhs": val(lhs), "rhs": val(rhs)}))
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
    pts, coeffs, column, ops = _sampler(spec, sample, coeff_sample, backend)
    vals = list(column((1,), [(i,) for i in range(len(pts))]))
    m4 = [column(ab, _sample_pairs(list(range(len(pts))))) for ab in coeffs]
    return _convex_form(ops, pts, vals, coeffs,
                        (next(col) for _ in pts for col in m4))
