"""Picard iteration with explicit convergence certificates.

The solver runs plain fixed-point iteration x_{n+1} = f(x_n) and certifies
progress with the explicit bound sequences attached to the two contraction
families:

* displacement form: with alpha = b/(b-a) and seed r = rho(alpha*a*(fx0-x0)),
  every later gap obeys rho(b(f^m x - f^n x)) <= k^n r / (1-k) for m > n;
* self-displacement form: with d0 = rho(b(fx0-x0)) and delta = l/(1-k), the
  step gaps decay like rho(b(f^n x - f^{n-1} x)) <= delta^{n-1} d0 and the
  two-index chain k delta^{m-1} d0 + l delta^{n-1} d0 dominates
  rho(b(f^m x - f^n x)).

Stopping is certified either by the a-priori bound or by an a-posteriori
step-gap test; both values are recorded.  Non-convergence is a structured
certificate (converged = False), never an exception, because inputs that
break the hypotheses are first-class experiments.

On the exact backend the solver can identify an exactly fixed point that the
orbit only approaches: it proposes the simplest rational point inside the
certified error ball and accepts it only after verifying f(p) == p exactly
and that p really lies in the ball.  A rejected proposal falls back to the
raw iterate, so the certificate never claims more than it verified.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Optional, Union

from .backend import Backend, Number, infer_backend
from .contractions import BanachConstants, KannanConstants, SelfMap
from .errors import AdmissibilityError, DimensionMismatchError, NonFiniteError
from .graphs import (SpaceGraph, Path, dedup_points, check_star_condition,
                     has_undirected_edge, is_weakly_connected_on, validate_path)
from .modular import ModularSpec, Point, require_point, rho_gap


@dataclass
class OrbitTrace:
    """A Picard orbit f^0 x .. f^N x with optional per-step rho gaps.

    step_gaps[i] = rho(b(points[i+1] - points[i])) when a modular and scale
    were supplied; None otherwise.
    """

    start: Point
    points: list
    step_gaps: Optional[list] = None


def _apply(f: SelfMap, x: Point) -> Point:
    y = f(x)
    y = require_point(y)
    if len(y) != len(x):
        raise DimensionMismatchError(
            f"map changed dimension {len(x)} -> {len(y)}")
    return y


def picard_orbit(f: SelfMap, x0: Point, steps: int,
                 spec: Optional[ModularSpec] = None,
                 bscale: Optional[Number] = None) -> OrbitTrace:
    """Iterate f for ``steps`` applications starting at x0.

    Raises NonFiniteError if the map blows up to non-finite coordinates.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x0 = require_point(x0)
    points = [x0]
    for _ in range(steps):
        points.append(_apply(f, points[-1]))
    gaps = None
    if spec is not None and bscale is not None:
        gaps = [rho_gap(spec, bscale, points[i + 1], points[i])
                for i in range(len(points) - 1)]
    return OrbitTrace(start=x0, points=points, step_gaps=gaps)


@dataclass
class CfReport:
    """Evidence that the whole forward orbit of x is pairwise edge-connected
    in the undirected view, checked to a finite depth."""

    depth: int
    pairs_checked: int
    ok: bool
    failure: Optional[tuple] = None  # (n, m, f^n x, f^m x)


def check_cf_membership(f: SelfMap, g: SpaceGraph, x: Point,
                        depth: int = 20) -> CfReport:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pts = picard_orbit(f, x, depth).points
    checked = 0
    for n in range(len(pts)):
        for m in range(n + 1, len(pts)):
            checked += 1
            if not has_undirected_edge(g, pts[n], pts[m]):
                return CfReport(depth, checked, False, (n, m, pts[n], pts[m]))
    return CfReport(depth, checked, True)


def banach_apriori_bound(c: BanachConstants, r: Number, n: int) -> Number:
    """k^n r / (1-k): upper bound for rho(b(f^m x - f^n x)) for all m > n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return c.tail(r, n)


def kannan_cauchy_bound(c: KannanConstants, d0: Number, n: int, m: int) -> Number:
    """k delta^(m-1) d0 + l delta^(n-1) d0 with delta = l/(1-k), for m, n >= 1:
    the condition at (f^(m-1) x, f^(n-1) x) plus the step-gap chain."""
    if n < 1 or m < 1:
        raise ValueError("indices must be >= 1")
    return c.pair(d0, n, m)


def kannan_tail_bound(c: KannanConstants, d0: Number, n: int) -> Number:
    """Upper bound for rho(b(f^m x - f^n x)) over ALL m > n.

    Uses the step-gap chain with the valid exponent delta^(i-1), so the bound
    is (k delta^n + l delta^(n-1)) d0; this is what the solver's stopping rule
    certifies against.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return c.tail(d0, n)


@dataclass
class UniquenessEvidence:
    """Finite-scope evidence supporting the uniqueness clause of a run."""

    kind: str  # "path" (weak connectivity) | "star" (common neighbor)
    weakly_connected: Optional[bool] = None
    common_neighbor: Optional[Point] = None
    rate_below_half: Optional[bool] = None
    note: str = ""


@dataclass
class ConvergenceCertificate:
    mode: str                      # "banach" | "kannan"
    constants: Union[BanachConstants, KannanConstants]
    initial_gap: Number            # banach: r = rho(alpha a (fx0-x0)); kannan: d0 = rho(b(fx0-x0))
    alpha: Optional[Number]        # banach only
    rate: Number                   # k (banach) or delta (kannan), in (0,1)
    iterations: int
    fixed_point: Point
    residual: Number               # rho((b/2)(f x* - x*)) at the returned point
    bound_at_stop: Number
    step_gap_at_stop: Optional[Number]
    cf_checked_depth: int
    cf_ok: bool
    converged: bool
    stop_reason: str               # exact-fixed | apriori-bound | step-gap | max-iter
    exact_fixed: bool              # f(fixed_point) == fixed_point held exactly
    snapped: bool
    backend: str
    trace: OrbitTrace
    uniqueness_evidence: Optional[UniquenessEvidence] = None


def simplest_rational_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator (then simplest numerator)
    inside the closed interval [lo, hi].

    Walks the continued fraction of both ends at once (a Stern-Brocot
    descent): while [lo, hi] holds no integer, take the common integer part
    n and continue with [1/(hi - n), 1/(lo - n)].  Iterative, so intervals
    of any width work.
    """
    if lo > hi:
        lo, hi = hi, lo
    if lo <= 0 <= hi:
        return Fraction(0)
    sign = 1
    if hi < 0:
        sign, lo, hi = -1, -hi, -lo
    p, q, r, s = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    terms = []
    while True:  # lo = p/q, hi = r/s, both in lowest terms and positive
        n = p // q
        if n * q == p or (n + 1) * s <= r:
            last = n if n * q == p else n + 1
            break
        terms.append(n)
        p, q, r, s = s, r - n * s, q, p - n * q
    num, den = last, 1
    for n in reversed(terms):
        num, den = n * num + den, num
    return Fraction(sign * num, den)


def _snap_candidate(spec: ModularSpec, bscale: Number, x_hat: Point,
                    bound: Number) -> Optional[Point]:
    """Simplest rational point inside the coordinate box that contains the
    rho-ball of the given radius bound around x_hat.  Loose on purpose: the
    caller verifies f(p) == p and ball membership exactly before accepting."""
    if spec.family == "custom" or not bound > 0:
        return None
    b = Fraction(bscale)
    coords = []
    for i, cc in enumerate(x_hat):
        w = spec.weights[i] if spec.family == "weighted-power" else 1
        base = Fraction(bound) / w
        if spec.p == 1:
            radius = base / b
        else:
            try:
                radius = 2 * Fraction(float(base) ** (1.0 / float(spec.p))) / b
            except (OverflowError, ValueError, ZeroDivisionError):
                return None
        if not radius > 0:
            return None
        center = Fraction(cc)
        coords.append(simplest_rational_in(center - radius, center + radius))
    return tuple(coords)


def _finish(c, spec, g, f, be, cf, x0, points, gaps, stop, bound_at_stop,
            initial_gap, snap) -> ConvergenceCertificate:
    """Snap, residual and uniqueness evidence for a finished orbit.  A start
    point that is already fixed (no step taken) gets residual 0 and no
    evidence."""
    candidate = points[-1]
    exact_fixed = stop == "exact-fixed"
    snapped = False
    converged = stop != "max-iter"
    if snap and converged and not exact_fixed and be.name == "exact":
        proposal = _snap_candidate(spec, c.b, candidate, bound_at_stop)
        if (proposal is not None and proposal != candidate
                and _apply(f, proposal) == proposal
                and rho_gap(spec, c.b, proposal, candidate) <= bound_at_stop):
            candidate = proposal
            exact_fixed = True
            snapped = True
    if not exact_fixed and _apply(f, candidate) == candidate:
        exact_fixed = True
    residual = (rho_gap(spec, c.b / 2, _apply(f, candidate), candidate)
                if gaps else 0)

    evidence = None
    if converged and gaps:
        witness = dedup_points(points + [candidate])
        if c.mode == "banach":
            evidence = UniquenessEvidence(
                kind="path",
                weakly_connected=is_weakly_connected_on(g, witness),
                note="weak connectivity checked on the orbit witness set")
        else:
            evidence = UniquenessEvidence(
                kind="star",
                common_neighbor=check_star_condition(g, x0, candidate, witness),
                rate_below_half=c.k_below_half,
                note="common-neighbor search over the orbit witness set")

    return ConvergenceCertificate(
        mode=c.mode, constants=c, initial_gap=initial_gap,
        alpha=getattr(c, "alpha", None),  # displacement form only
        rate=c.rate, iterations=len(points) - 1, fixed_point=candidate,
        residual=residual,
        bound_at_stop=bound_at_stop, step_gap_at_stop=gaps[-1] if gaps else None,
        cf_checked_depth=cf.depth, cf_ok=cf.ok, converged=converged,
        stop_reason=stop, exact_fixed=exact_fixed, snapped=snapped,
        backend=be.name, trace=OrbitTrace(start=x0, points=points, step_gaps=gaps),
        uniqueness_evidence=evidence)


def _solve(f: SelfMap, spec: ModularSpec, g: SpaceGraph, c, x0: Point,
           tol: Number, max_iter: int, cf_depth: int,
           backend: Optional[Backend], snap: bool) -> ConvergenceCertificate:
    """Picard iteration certified by the family's tail bound c.tail(seed, n).

    Stops at the first n with tail bound <= tol (a-priori certificate) or
    step gap rho(b(x_n - x_{n-1})) <= tol (a-posteriori), or exactly when the
    orbit lands on a fixed point; hitting max_iter yields a structured
    non-convergence certificate.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x0 = require_point(x0)
    be = backend or infer_backend([x0, astuple(c), tol])
    cf = check_cf_membership(f, g, x0, cf_depth)
    fx0 = _apply(f, x0)
    if fx0 == x0:  # rho of the zero vector is exactly 0 on either backend
        return _finish(c, spec, g, f, be, cf, x0, [x0], [], "exact-fixed", 0,
                       0, snap)
    seed = c.seed_gap(spec, x0, fx0)

    points = [x0]
    gaps = []
    stop = "max-iter"
    bound = c.tail(seed, 0)
    xnext = fx0
    for n in range(1, max_iter + 1):
        if n > 1:
            xnext = _apply(f, points[-1])
        gap = rho_gap(spec, c.b, xnext, points[-1])
        bound = c.tail(seed, n)
        points.append(xnext)
        gaps.append(gap)
        if gap == 0:
            stop = "exact-fixed"
            break
        if bound <= tol:
            stop = "apriori-bound"
            break
        if gap <= tol:
            stop = "step-gap"
            break
    return _finish(c, spec, g, f, be, cf, x0, points, gaps, stop, bound, seed,
                   snap)


def solve_banach(f: SelfMap, spec: ModularSpec, g: SpaceGraph,
                 c: BanachConstants, x0: Point, tol: Number,
                 max_iter: int = 500, cf_depth: int = 20,
                 backend: Optional[Backend] = None,
                 snap: bool = True) -> ConvergenceCertificate:
    """Picard iteration certified by the displacement-form bound k^n r/(1-k)."""
    return _solve(f, spec, g, c, x0, tol, max_iter, cf_depth, backend, snap)


def solve_kannan(f: SelfMap, spec: ModularSpec, g: SpaceGraph,
                 c: KannanConstants, x0: Point, tol: Number,
                 max_iter: int = 500, cf_depth: int = 20,
                 backend: Optional[Backend] = None,
                 snap: bool = True) -> ConvergenceCertificate:
    """Picard iteration certified by the delta-rate tail bound of the
    self-displacement form."""
    return _solve(f, spec, g, c, x0, tol, max_iter, cf_depth, backend, snap)


@dataclass(frozen=True)
class PathUniquenessBound:
    """Pieces of the path-based uniqueness estimate for the displacement form.

    bound          = k^n * sum_s rho(b(v_{s-1} - v_s)) over the original path
    pushed_gap_sum = sum_s rho(b(f^n v_{s-1} - f^n v_s)) after pushing every
                     vertex through f n times
    endpoint_gap   = rho((b/N)(f^n v_0 - f^n v_N))

    endpoint_gap <= pushed_gap_sum always (multi-term subadditivity), and
    pushed_gap_sum <= bound whenever the displacement condition held along
    the pushed edges; a fake fixed endpoint is exposed by the bound shrinking
    geometrically in n while the endpoint refuses to move.
    """

    bound: Number
    pushed_gap_sum: Number
    endpoint_gap: Number


def verify_uniqueness_banach(c: BanachConstants, spec: ModularSpec, f: SelfMap,
                             path: Path, n: int,
                             g: Optional[SpaceGraph] = None) -> PathUniquenessBound:
    """Evaluate the path-based uniqueness estimate after n pushes through f.

    When a graph is supplied the path must consist of consecutive undirected
    edges (raises otherwise).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if g is not None:
        validate_path(g, path)
    verts = [require_point(v) for v in path.vertices]
    N = len(verts) - 1
    if N == 0:
        return PathUniquenessBound(0, 0, 0)
    orig_sum = sum(rho_gap(spec, c.b, verts[s - 1], verts[s])
                   for s in range(1, N + 1))
    bound = c.k ** n * orig_sum
    pushed = list(verts)
    for _ in range(n):
        pushed = [_apply(f, v) for v in pushed]
    pushed_sum = sum(rho_gap(spec, c.b, pushed[s - 1], pushed[s])
                     for s in range(1, N + 1))
    endpoint_gap = rho_gap(spec, c.b / N, pushed[0], pushed[-1])
    return PathUniquenessBound(bound, pushed_sum, endpoint_gap)


def verify_uniqueness_kannan(c: KannanConstants, spec: ModularSpec, f: SelfMap,
                             xstar: Point, z: Point, n: int) -> Number:
    """lambda^n rho(b(z - x*)) with lambda = k/(1-k): the decay bound that the
    actual rho(b(f^n z - x*)) must respect when x* is a fixed point.

    Requires k < 1/2 (otherwise lambda >= 1 and the uniqueness argument is
    void) and that x* really is exactly fixed under f.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not c.k_below_half:
        raise AdmissibilityError(
            f"uniqueness clause needs k < 1/2, got k={c.k} "
            f"(lambda = k/(1-k) >= 1)")
    xstar = require_point(xstar)
    if _apply(f, xstar) != xstar:
        raise ValueError("xstar is not an exact fixed point of f")
    lam = c.uniqueness_rate
    return lam ** n * rho_gap(spec, c.b, z, xstar)
