"""Graphs on the point space given by edge predicates, with every loop present.

The vertex set is implicitly the whole space, so edges are predicates rather
than adjacency lists, and global properties (weak connectedness, shared
neighbors, edges into a limit) are decided only on finite witness sets
supplied by the caller.  Every positive answer is evidence at that finite
scope, not a proof over the space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatchError
from .modular import Point

GRAPH_KINDS = ("complete", "poset", "custom")


@dataclass(frozen=True)
class SpaceGraph:
    kind: str
    predicate: Optional[Callable[[Point, Point], bool]] = None

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.kind != "complete" and self.predicate is None:
            raise ValueError(f"{self.kind} graph needs an edge predicate")


def make_complete() -> SpaceGraph:
    return SpaceGraph("complete")


def coordinatewise_leq(x: Point, y: Point) -> bool:
    if len(x) != len(y):
        raise DimensionMismatchError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return all(a <= b for a, b in zip(x, y))


def make_poset(order: Optional[Callable[[Point, Point], bool]] = None) -> SpaceGraph:
    return SpaceGraph("poset", order or coordinatewise_leq)


def make_custom(edge: Callable[[Point, Point], bool]) -> SpaceGraph:
    return SpaceGraph("custom", edge)


def has_edge(g: SpaceGraph, x: Point, y: Point) -> bool:
    """Directed edge test; loops hold by construction, never via the predicate."""
    if x == y:
        return True
    if g.kind == "complete":
        return True
    return bool(g.predicate(x, y))


def has_undirected_edge(g: SpaceGraph, x: Point, y: Point) -> bool:
    return has_edge(g, x, y) or has_edge(g, y, x)


@dataclass(frozen=True)
class Path:
    vertices: tuple

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")
        object.__setattr__(self, "vertices", tuple(self.vertices))

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def validate_path(g: SpaceGraph, path: Path) -> None:
    """Raise unless consecutive vertices are undirected edges of g."""
    vs = path.vertices
    for s in range(1, len(vs)):
        if not has_undirected_edge(g, vs[s - 1], vs[s]):
            raise ValueError(f"path breaks at step {s}: no undirected edge "
                             f"{vs[s - 1]!r} ~ {vs[s]!r}")


def dedup_points(points) -> list:
    return list(dict.fromkeys(points))


def _search(g: SpaceGraph, verts: list, start: int,
            goal: Optional[int] = None) -> list:
    """Breadth-first search over verts from index start, tracked by position
    (no point is hashed) with neighbors in witness order; it stops at the
    goal or once every vertex is reached.  parent[j] is the index j was
    reached from, -1 for start and None when unreached."""
    parent = [None] * len(verts)
    parent[start] = -1
    left = len(verts) - 1
    queue = deque([start])
    while queue and left:
        i = queue.popleft()
        for j, v in enumerate(verts):
            if parent[j] is None and has_undirected_edge(g, verts[i], v):
                parent[j] = i
                left -= 1
                if j == goal:
                    return parent
                queue.append(j)
    return parent


def find_undirected_path(g: SpaceGraph, witness: Sequence[Point], x: Point,
                         y: Point) -> Optional[Path]:
    """Shortest undirected path from x to y within the witness set, or None;
    x and y are appended when absent, and ties resolve in witness order."""
    verts = dedup_points([*witness, x, y])
    if x == y:
        return Path((x,))
    hop = verts.index(y)
    parent = _search(g, verts, verts.index(x), hop)
    if parent[hop] is None:
        return None
    rev = []
    while hop != -1:
        rev.append(verts[hop])
        hop = parent[hop]
    return Path(tuple(reversed(rev)))


def is_weakly_connected_on(g: SpaceGraph, witness: Sequence[Point]) -> bool:
    """True when every pair of witness points is joined by an undirected path
    staying inside the witness set."""
    verts = dedup_points(witness)
    if not verts:
        raise ValueError("empty witness set")
    return None not in _search(g, verts, 0)


def check_star_condition(g: SpaceGraph, x: Point, y: Point,
                         candidates: Sequence[Point]) -> Optional[Point]:
    """First candidate z with undirected edges to both x and y, or None."""
    for z in candidates:
        if has_undirected_edge(g, x, z) and has_undirected_edge(g, y, z):
            return z
    return None


@dataclass
class OrbitLimitReport:
    """Evidence about edges from an edge-chained orbit into a limit point."""

    chained: bool
    broken_at: Optional[int]
    hit_indices: tuple
    message: str

    @property
    def subsequence_found(self) -> bool:
        return bool(self.hit_indices)


def check_property_star_on_orbit(g: SpaceGraph, orbit: Sequence[Point],
                                 limit: Point) -> OrbitLimitReport:
    """Report which orbit indices carry an undirected edge to the limit.

    Also verifies the orbit is consecutively edge-chained; a broken chain is
    reported, not raised, since hypothesis-violating inputs are first-class
    experiments.
    """
    orbit = list(orbit)
    broken_at = None
    for i in range(1, len(orbit)):
        if not has_undirected_edge(g, orbit[i - 1], orbit[i]):
            broken_at = i
            break
    hits = tuple(i for i, p in enumerate(orbit)
                 if has_undirected_edge(g, p, limit))
    if hits:
        message = f"subsequence found (indices {list(hits)[:8]}{'...' if len(hits) > 8 else ''})"
    else:
        message = "no edge to limit found in given orbit"
    return OrbitLimitReport(chained=broken_at is None, broken_at=broken_at,
                            hit_indices=hits, message=message)
