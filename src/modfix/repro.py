"""Replay of the worked-example identities on the exact backend.

Every check recomputes a closed-form identity or inequality with exact
rational arithmetic and compares bit-for-bit; no tolerances anywhere.  The
fixtures are embedded, so the command needs no configuration.
"""

from __future__ import annotations

import time
from fractions import Fraction as F

from .backend import EXACT
from .contractions import (BANACH_RESCALE_RULE, KANNAN_RESCALE_RULE,
                           check_banach_condition, check_kannan_condition,
                           constant_map, convex_rescale_banach,
                           convex_rescale_kannan, scalar_map)
from .fixtures import banach_linear, kannan_piecewise
from .graphs import has_edge, make_complete, make_custom, make_poset
from .modular import gap_table, power, rho_gap
from .sampling import (SplitMix64, admissible_banach_triples,
                       admissible_kannan_tuples, kannan_rescale_inputs)
from .solver import (banach_apriori_bound, picard_orbit, solve_banach,
                     solve_kannan)

REPRO_SEED = 2026_08_10


def check_constant_maps():
    """Constant maps satisfy both contraction conditions on any graph."""
    fx = banach_linear(EXACT)
    kx = kannan_piecewise(EXACT)
    pairs = [((F(i, 3),), (F(j, 5),)) for i in range(-4, 5) for j in range(-4, 5)]
    pairs += [(p, p) for p, _ in pairs[:9]]
    cmap = constant_map((F(7, 11),))
    checked = 0
    for g in (make_complete(), make_custom(lambda x, y: False)):
        rb = check_banach_condition(cmap, fx.spec, g, fx.constants, pairs,
                                    backend=EXACT)
        rk = check_kannan_condition(cmap, kx.spec, g, kx.constants, pairs,
                                    backend=EXACT)
        if not (rb.ok and rk.ok):
            return False, f"violation on graph kind {g.kind}"
        checked += rb.pairs_checked + rk.pairs_checked
    return True, f"both conditions hold on {checked} edge pairs over two graphs"


def check_graph_presets():
    """Complete graph joins everything; order graph follows the comparison."""
    g0 = make_complete()
    g1 = make_poset()
    checks = [
        has_edge(g0, (F(1),), (F(-5),)),
        has_edge(g1, (F(1),), (F(2),)),
        not has_edge(g1, (F(2),), (F(1),)),
        has_edge(g1, (F(2),), (F(2),)),  # loop forced
    ]
    return all(checks), "complete joins all pairs; order graph matches <="


def check_banach_example_identity():
    """rho(b(fx-fy)) = |x-y|/3 = k rho(a(x-y)) for k=2/3, a=1/2, b=1, exactly."""
    fx = banach_linear(EXACT)
    c = fx.constants
    pairs = [((F(i, 7),), (F(j, 11),)) for i in range(-5, 6) for j in range(-5, 6)]
    for x, y in pairs:
        lhs = rho_gap(fx.spec, c.b, fx.map(x), fx.map(y))
        mid = abs(x[0] - y[0]) / 3
        rhs = c.k * rho_gap(fx.spec, c.a, x, y)
        if not (lhs == mid == rhs):
            return False, f"identity broke at x={x[0]}, y={y[0]}"
    return True, f"exact equality on {len(pairs)} rational pairs"


def check_kannan_example_cases(k=F(64, 81), l=F(16, 81)):
    """The three-case verification of the two-valued map, exactly.

    Case of equal images: both sides trivial.  Spike-vs-rest cases: the
    image gap is exactly 4/25, the spike's own displacement term is exactly
    4/25, and the remaining term is l*(1/2 - y)^2 >= 0."""
    fx = kannan_piecewise(EXACT)
    spec, f = fx.spec, fx.map
    a1, a2, b = F(1, 2), F(1), F(1)
    if not k + l < 1:
        return False, f"constants inadmissible: k+l = {k + l}"
    ys = [(F(j, 9) - 5,) for j in range(101)]
    ys = [y for y in ys if y[0] != 1][:100]
    if len(ys) < 100:
        return False, "not enough probe values"
    one = (F(1),)
    for y in ys:
        # spike first
        lhs = rho_gap(spec, b, f(one), f(y))
        k_term = k * rho_gap(spec, a1, f(one), one)
        l_term = l * rho_gap(spec, a2, f(y), y)
        if lhs != F(4, 25) or k_term != F(4, 25):
            return False, f"case-2 identity broke at y={y[0]}"
        if l_term != l * (F(1, 2) - y[0]) ** 2 or not lhs <= k_term + l_term:
            return False, f"case-2 inequality broke at y={y[0]}"
        # spike second (mirrored roles)
        lhs = rho_gap(spec, b, f(y), f(one))
        k_term = k * rho_gap(spec, a1, f(y), y)
        l_term = l * rho_gap(spec, a2, f(one), one)
        if lhs != F(4, 25) or l_term != l * F(81, 100):
            return False, f"case-3 identity broke at x={y[0]}"
        if not lhs <= k_term + l_term:
            return False, f"case-3 inequality broke at x={y[0]}"
        # equal images (partner kept clear of the spike point)
        partner = (y[0] / 2 + 20,)
        if rho_gap(spec, b, f(y), f(partner)) != 0:
            return False, f"case-1 broke at x={y[0]}"
    return True, f"all three cases exact on {len(ys)} rational probes (k+l={k + l})"


def check_linear_map_never_kannan():
    """No admissible self-displacement tuple fits f(x) = x/3: probe (x, 0)."""
    fx = banach_linear(EXACT)
    rng = SplitMix64(REPRO_SEED)
    tuples = admissible_kannan_tuples(rng, 50)
    probes = [((F(1),), (F(0),)), ((F(-2),), (F(0),)), ((F(7, 3),), (F(0),))]
    for c in tuples:
        report = check_kannan_condition(fx.map, fx.spec, fx.graph, c, probes,
                                        backend=EXACT)
        hit = any(v.y == (F(0),) and v.x != (F(0),) for v in report.violations)
        if not hit:
            return False, f"no violation at (x, 0) for constants {c}"
    return True, "violation witnessed at (x, 0) for all 50 admissible tuples"


def check_piecewise_never_banach():
    """No admissible displacement triple fits the two-valued map: probe (1, 3/5)."""
    fx = kannan_piecewise(EXACT)
    rng = SplitMix64(REPRO_SEED + 1)
    triples = admissible_banach_triples(rng, 50)
    probe = ((F(1),), (F(3, 5),))
    for c in triples:
        report = check_banach_condition(fx.map, fx.spec, fx.graph, c, [probe],
                                        backend=EXACT)
        if not any(v.x == probe[0] and v.y == probe[1] for v in report.violations):
            return False, f"no violation at (1, 3/5) for constants {c}"
        v = report.violations[0]
        if v.lhs != 4 * c.b ** 2 / 25 or v.rhs != 4 * c.a ** 2 * c.k / 25:
            return False, f"witness values off for constants {c}"
    return True, "violation 4b^2/25 > 4a^2k/25 at (1, 3/5) for all 50 triples"


def check_banach_rescaling():
    """(4/9, 1, 2) rescales to exactly (8/27, 3/2, 2), which still fits x/3
    under the square modular."""
    res = convex_rescale_banach(F(4, 9), F(1), F(2))
    if (res.k, res.a, res.b) != (F(8, 27), F(3, 2), F(2)):
        return False, f"got ({res.k}, {res.a}, {res.b})"
    spec = power(2)
    f = scalar_map(lambda t: t / 3, "x -> x/3")
    g = make_complete()
    pts = [(F(i, 3),) for i in range(-5, 6)]
    pairs = [(x, y) for x in pts for y in pts if x != y]
    rep = check_banach_condition(f, spec, g, res, pairs, backend=EXACT)
    if not rep.ok:
        return False, "rescaled constants fail on the grid"
    return True, (f"exact rescale + condition holds on {rep.pairs_checked} "
                  f"pairs ({BANACH_RESCALE_RULE})")


def check_kannan_rescaling():
    """Exact example plus 1000 random relaxed tuples: outputs admissible with
    factor sum < 1 and new k below 1/2."""
    res = convex_rescale_kannan(F(64, 81), F(16, 81), F(1, 2), F(1), F(9))
    if (res.k, res.l, res.a1, res.a2, res.b) != (F(64, 729), F(32, 729),
                                                 F(9, 2), F(9, 2), F(9)):
        return False, f"got ({res.k}, {res.l}, {res.a1}, {res.a2}, {res.b})"
    rng = SplitMix64(REPRO_SEED + 2)
    for k, l, a1, a2, b in kannan_rescale_inputs(rng, 1000):
        out = convex_rescale_kannan(k, l, a1, a2, b)
        if not out.k_below_half:
            return False, f"rescale output inadmissible for ({k},{l},{a1},{a2},{b})"
    return True, (f"exact example + 1000 random tuples all admissible, "
                  f"k' < 1/2 ({KANNAN_RESCALE_RULE})")


def check_banach_bound_validity():
    """Orbit gaps obey k^n r/(1-k) for 1 <= n < m <= 50, exactly."""
    fx = banach_linear(EXACT)
    c = fx.constants
    alpha = c.alpha
    if alpha != 2:
        return False, f"alpha = {alpha}, expected 2"
    orbit = picard_orbit(fx.map, fx.solve.x0, 50).points
    r = rho_gap(fx.spec, alpha * c.a, orbit[1], orbit[0])
    if r != F(2, 3):
        return False, f"r = {r}, expected 2/3"
    gap = gap_table(fx.spec, c.b, orbit)
    for n in range(1, 50):
        bound = banach_apriori_bound(c, r, n)
        for m in range(n + 1, 51):
            if not gap(m, n) <= bound:
                return False, f"bound violated at n={n}, m={m}"
    return True, "all 1225 ordered index pairs within the bound (r=2/3, alpha=2)"


def check_kannan_rate_and_bound():
    """Step gaps decay by delta = 16/17 and the two-index chain dominates all
    gaps for n, m <= 50."""
    fx = kannan_piecewise(EXACT)
    c = fx.constants
    if c.delta != F(16, 17):
        return False, f"delta = {c.delta}"
    gap = gap_table(fx.spec, c.b, picard_orbit(fx.map, fx.solve.x0, 50).points)
    steps = [gap(i + 1, i) for i in range(50)]
    for i in range(1, len(steps)):
        if not steps[i] <= c.delta * steps[i - 1]:
            return False, f"step-gap decay broke at step {i + 1}"
    bound = c.pair_table(steps[0], 50)
    for n in range(1, 51):
        for m in range(1, 51):
            if not gap(m, n) <= bound(n, m):
                return False, f"two-index bound violated at n={n}, m={m}"
    return True, "delta-decay and two-index bound hold for all n, m <= 50"


def check_solver_fixtures():
    """The solver lands exactly on both known fixed points."""
    fb = banach_linear(EXACT)
    cert = solve_banach(fb.map, fb.spec, fb.graph, fb.constants, fb.solve.x0,
                        tol=F(1, 10 ** 9))
    if not (cert.converged and cert.fixed_point == (F(0),)
            and cert.residual == 0 and cert.iterations <= 60):
        return False, (f"linear fixture: fp={cert.fixed_point}, "
                       f"residual={cert.residual}, iters={cert.iterations}")
    fk = kannan_piecewise(EXACT)
    cert2 = solve_kannan(fk.map, fk.spec, fk.graph, fk.constants, fk.solve.x0,
                         tol=F(1, 10 ** 9))
    if not (cert2.converged and cert2.fixed_point == (F(1, 2),)
            and cert2.residual == 0 and cert2.iterations <= 3):
        return False, (f"piecewise fixture: fp={cert2.fixed_point}, "
                       f"iters={cert2.iterations}")
    return True, (f"fixed points 0 (in {cert.iterations} steps) and "
                  f"1/2 (in {cert2.iterations} steps), both residual 0")


def check_square_modular_axioms():
    """The square modular really is a modular: axioms hold on a rational grid."""
    from .modular import check_modular_axioms
    spec = power(2)
    sample = [(F(i, 4),) for i in range(-8, 9)]
    coeffs = [(F(1), F(0)), (F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))]
    report = check_modular_axioms(spec, sample, coeffs, backend=EXACT)
    if not report.ok:
        return False, f"{len(report.violations)} violations"
    return True, f"no violations in {report.checks} sampled instances"


REPRO_CHECKS = [
    ("constant-maps-are-contractions", check_constant_maps),
    ("graph-presets", check_graph_presets),
    ("square-modular-axioms", check_square_modular_axioms),
    ("banach-example-identity", check_banach_example_identity),
    ("kannan-example-cases", check_kannan_example_cases),
    ("linear-map-never-kannan", check_linear_map_never_kannan),
    ("piecewise-map-never-banach", check_piecewise_never_banach),
    ("banach-rescaling", check_banach_rescaling),
    ("kannan-rescaling", check_kannan_rescaling),
    ("banach-bound-validity", check_banach_bound_validity),
    ("kannan-rate-and-bound", check_kannan_rate_and_bound),
    ("solver-fixtures", check_solver_fixtures),
]


def run_repro(emit=print) -> int:
    """Run every embedded identity check; exit 0 only if all reproduce."""
    failures = 0
    for name, fn in REPRO_CHECKS:
        t0 = time.perf_counter()
        ok, detail = fn()
        dt = time.perf_counter() - t0
        status = "ok  " if ok else "FAIL"
        emit(f"{status} {name}: {detail} [{dt * 1000:.0f} ms]")
        if not ok:
            failures += 1
    emit(f"{'all' if failures == 0 else failures} "
         f"{'checks reproduced exactly' if failures == 0 else 'check(s) failed'} "
         f"({len(REPRO_CHECKS)} total)")
    return 0 if failures == 0 else 1
