"""Graph predicate, path search and witness-set property tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfix import (check_property_star_on_orbit, check_star_condition,
                    find_undirected_path, has_edge, has_undirected_edge,
                    is_weakly_connected_on, make_complete, make_custom,
                    make_poset)
from modfix.errors import DimensionMismatchError
from modfix.graphs import Path, SpaceGraph, coordinatewise_leq, validate_path
from modfix.sampling import SplitMix64

P = lambda v: (F(v),)

G0 = make_complete()
G1 = make_poset()  # coordinatewise <=
LOOPS_ONLY = make_custom(lambda x, y: False)

frac = st.fractions(min_value=-5, max_value=5, max_denominator=20)
pt = st.tuples(frac)


def test_loops_forced_for_every_kind():
    for g in (G0, G1, LOOPS_ONLY):
        assert has_edge(g, P(2), P(2))
        assert has_edge(g, (F(1), F(2)), (F(1), F(2)))
    # loop wins even when the user predicate denies it
    denier = make_custom(lambda x, y: False)
    assert has_edge(denier, P(0), P(0))


def test_complete_graph_joins_everything():
    assert has_edge(G0, P(1), P(-7))
    assert has_edge(G0, P("2/3"), P("1/5"))


def test_poset_graph_follows_order():
    assert has_edge(G1, P(1), P(2))
    assert not has_edge(G1, P(2), P(1))
    assert has_undirected_edge(G1, P(2), P(1))


def test_poset_coordinatewise_2d():
    assert has_edge(G1, (F(0), F(0)), (F(1), F(1)))
    assert not has_edge(G1, (F(0), F(2)), (F(1), F(1)))


def test_custom_graph_empty_beyond_loops():
    assert not has_undirected_edge(LOOPS_ONLY, P(0), P(1))


def test_bfs_on_complete_graph_direct_hop():
    path = find_undirected_path(G0, [P(5), P(-1)], P(5), P(-1))
    assert path.vertices == (P(5), P(-1))
    assert path.length == 1


def test_bfs_trivial_when_endpoints_equal():
    path = find_undirected_path(G0, [P(0)], P(0), P(0))
    assert path.vertices == (P(0),)
    assert path.length == 0


def test_bfs_on_order_graph_prefers_direct_edge():
    path = find_undirected_path(G1, [P(0), P(1), P(2)], P(0), P(2))
    assert path.vertices == (P(0), P(2))


def test_bfs_appends_missing_endpoints():
    path = find_undirected_path(G0, [P(3)], P(0), P(1))
    assert path is not None and path.vertices[0] == P(0)


def test_bfs_none_when_disconnected():
    assert find_undirected_path(LOOPS_ONLY, [P(0), P(1)], P(0), P(1)) is None


def _logged_graph(rule):
    """A custom graph whose predicate logs each call as "x,y"."""
    calls = []

    def edge(x, y):
        calls.append(f"{x[0]},{y[0]}")
        return rule(x, y)
    return make_custom(edge), calls


# (rule, witness, x, y, expected vertices, expected predicate calls)
PINNED_SEARCHES = [
    # directed hops of +3 and -2 over a shuffled witness list
    (lambda x, y: y[0] - x[0] in (3, -2), (0, 5, 3, 8, 1, 6, 4, 9, 2, 7),
     0, 7, [0, 3, 5, 7],
     "0,5 5,0 0,3 0,8 8,0 0,1 1,0 0,6 6,0 0,4 4,0 0,9 9,0 0,2 2,0 "
     "0,7 7,0 3,5 5,3 3,8 8,3 3,1 3,6 3,4 4,3 3,9 9,3 3,7 7,3 2,8 "
     "8,2 2,4 4,2 2,9 9,2 2,7 7,2 5,8 5,9 9,5 5,7 7,5"),
    # a chain below 5 and a hop of 6; the goal 11 is appended to the witness
    (lambda x, y: abs(x[0] - y[0]) == 1 and x[0] < 5 or y[0] - x[0] == 6,
     (4, 0, 2, 5, 3, 1), 0, 11, [0, 1, 2, 3, 4, 5, 11],
     "0,4 4,0 0,2 2,0 0,5 5,0 0,3 3,0 0,1 0,11 11,0 1,4 4,1 1,2 "
     "1,5 5,1 1,3 3,1 1,11 11,1 2,4 4,2 2,5 5,2 2,3 2,11 11,2 3,4 "
     "3,5 5,3 3,11 11,3 4,5 4,11 11,4 5,11"),
    # the same chain without the hop: the appended goal 9 is unreachable
    (lambda x, y: abs(x[0] - y[0]) == 1 and x[0] < 5,
     (4, 0, 2, 5, 3, 1), 1, 9, None,
     "1,4 4,1 1,0 1,2 1,5 5,1 1,3 3,1 1,9 9,1 0,4 4,0 0,5 5,0 0,3 "
     "3,0 0,9 9,0 2,4 4,2 2,5 5,2 2,3 2,9 9,2 3,4 3,5 5,3 3,9 9,3 "
     "4,5 4,9 9,4 5,9 9,5"),
]


@pytest.mark.parametrize("rule, witness, x, y, vertices, calls",
                         PINNED_SEARCHES)
def test_path_search_vertices_and_predicate_calls_pinned(rule, witness, x, y,
                                                         vertices, calls):
    g, log = _logged_graph(rule)
    path = find_undirected_path(g, [P(v) for v in witness], P(x), P(y))
    if vertices is None:
        assert path is None
    else:
        assert path.vertices == tuple(P(v) for v in vertices)
    assert " ".join(log) == calls


def test_weak_connectivity():
    W = [P(v) for v in range(5)]
    assert is_weakly_connected_on(G0, W)
    assert is_weakly_connected_on(G1, W)  # total order chains everything
    assert not is_weakly_connected_on(LOOPS_ONLY, W)
    assert is_weakly_connected_on(LOOPS_ONLY, [P(7)])
    # two chains {0..9} and {20..29}: the search must not stop early
    chains = make_custom(lambda x, y: abs(x[0] - y[0]) == 1)
    W = [P(v) for v in list(range(10)) + list(range(20, 30))]
    assert not is_weakly_connected_on(chains, W)
    assert not is_weakly_connected_on(chains, W[::-1])
    assert is_weakly_connected_on(chains, W[:10])


def test_weak_connectivity_stops_once_every_witness_is_reached():
    calls = []

    def edge(x, y):
        calls.append((x, y))
        # P(0) is joined to every other witness, in either direction
        return (x == P(0) and y[0] % 2 == 0) or (y == P(0) and x[0] % 2 == 1)
    W = [P(0)] + [P(v) for v in range(40, 1, -1)]
    assert is_weakly_connected_on(make_custom(edge), W)
    assert len(calls) <= 2 * (len(W) - 1)


class _CountingHash(F):
    hashes = 0

    def __hash__(self):
        _CountingHash.hashes += 1
        return super().__hash__()


def test_weak_connectivity_hashes_witnesses_only_to_dedup():
    W = [(_CountingHash(v, 7),) for v in range(60)]
    _CountingHash.hashes = 0
    assert is_weakly_connected_on(G1, W[::-1])
    assert _CountingHash.hashes <= 2 * len(W)  # dedup only


def _brute_force_connected(n, edges):
    reach = {0}
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if (i in reach) != (j in reach):
                reach |= {i, j}
                grew = True
    return len(reach) == n


@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
@settings(max_examples=80)
def test_weak_connectivity_matches_brute_force(graph):
    n, edges = graph
    g = make_custom(lambda x, y: (int(x[0]), int(y[0])) in edges)
    assert (is_weakly_connected_on(g, [P(i) for i in range(n)])
            == _brute_force_connected(n, edges))


def test_star_condition():
    cands = [P(0), P(5)]
    assert check_star_condition(G0, P(1), P(3), cands) == P(0)  # first wins
    # in the undirected view a common lower bound qualifies just like a
    # common upper bound; the first qualifying candidate is returned
    assert check_star_condition(G1, P(1), P(3), cands) == P(0)
    assert check_star_condition(G1, P(1), P(3), [P(5)]) == P(5)  # upper bound
    # a partial order without a shared comparable point yields none
    g_pairs = make_poset()
    assert check_star_condition(g_pairs, (F(0), F(1)), (F(1), F(0)),
                                [(F(0), F(0))]) == (F(0), F(0))  # lower bound
    assert check_star_condition(g_pairs, (F(0), F(2)), (F(2), F(0)),
                                [(F(1), F(1))]) is None  # incomparable to both
    assert check_star_condition(LOOPS_ONLY, P(0), P(1), [P(0)]) is None
    assert check_star_condition(LOOPS_ONLY, P(2), P(2), [P(2)]) == P(2)


def test_property_star_on_orbit_complete():
    orbit = [P(F(1, 3) ** n) for n in range(6)]
    rep = check_property_star_on_orbit(G0, orbit, P(0))
    assert rep.chained and rep.subsequence_found
    assert rep.hit_indices == tuple(range(6))


def test_property_star_on_orbit_order_graph():
    orbit = [P(F(1, 3 ** n)) for n in range(11)]
    rep = check_property_star_on_orbit(G1, orbit, P(0))
    assert rep.chained
    assert rep.hit_indices == tuple(range(11))  # 0 <= 3^-n always


def test_property_star_no_edges_to_limit():
    orbit = [P(0), P(0), P(0)]
    rep = check_property_star_on_orbit(LOOPS_ONLY, orbit, P(1))
    assert rep.chained and not rep.subsequence_found
    assert "no edge to limit" in rep.message


def test_property_star_reports_broken_chain():
    rep = check_property_star_on_orbit(LOOPS_ONLY, [P(0), P(1)], P(0))
    assert not rep.chained and rep.broken_at == 1


def test_validate_path():
    validate_path(G1, Path((P(0), P(1), P(2))))
    with pytest.raises(ValueError):
        validate_path(LOOPS_ONLY, Path((P(0), P(1))))
    with pytest.raises(ValueError):
        Path(())


@given(pt, pt)
@settings(max_examples=80)
def test_undirected_edge_symmetric(x, y):
    for g in (G0, G1, make_custom(lambda a, b: a[0] + 1 <= b[0])):
        assert has_undirected_edge(g, x, y) == has_undirected_edge(g, y, x)


@given(pt)
@settings(max_examples=80)
def test_every_point_has_loop(x):
    for g in (G0, G1, LOOPS_ONLY):
        assert has_edge(g, x, x)


def _random_small_graph(seed, n_points):
    rng = SplitMix64(seed)
    pts = [P(i) for i in range(n_points)]
    edges = {(i, j) for i in range(n_points) for j in range(n_points)
             if rng.next_u64() % 3 == 0}
    g = make_custom(lambda x, y: (int(x[0]), int(y[0])) in edges)
    return g, pts


@pytest.mark.parametrize("seed", range(12))
def test_connectivity_implies_all_pairs_reachable(seed):
    # exhaustive pair check on witness sets of size <= 12
    g, pts = _random_small_graph(seed, 4 + seed % 9)
    if is_weakly_connected_on(g, pts):
        for x in pts:
            for y in pts:
                path = find_undirected_path(g, pts, x, y)
                assert path is not None
                assert path.vertices[0] == x and path.vertices[-1] == y
                validate_path(g, path)
    else:
        assert any(find_undirected_path(g, pts, x, y) is None
                   for x in pts for y in pts)


@pytest.mark.parametrize("seed", range(6))
def test_returned_paths_satisfy_invariant(seed):
    g, pts = _random_small_graph(seed * 17 + 3, 8)
    for x in pts[:4]:
        for y in pts[4:]:
            path = find_undirected_path(g, pts, x, y)
            if path is not None:
                validate_path(g, path)
                assert path.vertices[0] == x and path.vertices[-1] == y


@pytest.mark.parametrize("call, exc, message", [
    (lambda: SpaceGraph("tree"), ValueError, "unknown graph kind 'tree'"),
    (lambda: SpaceGraph("poset"), ValueError,
     "poset graph needs an edge predicate"),
    (lambda: SpaceGraph("custom"), ValueError,
     "custom graph needs an edge predicate"),
    (lambda: coordinatewise_leq(P(1), (F(1), F(2))), DimensionMismatchError,
     "dimension mismatch: 1 vs 2"),
    (lambda: is_weakly_connected_on(make_complete(), []), ValueError,
     "empty witness set"),
])
def test_graph_raises(call, exc, message):
    with pytest.raises(exc) as e:
        call()
    assert str(e.value) == message
