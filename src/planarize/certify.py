"""Independent checkers for the properties the reducers promise.

Everything here is deliberately separate from the reducers: these
predicates are run against the induced subgraph of the *original* input,
so a reducer bug cannot vouch for itself.

The residue certificates share one worklist rewriting engine,
``_reduce``.  With all four rules (delete degree <= 1, smooth degree 2,
drop loops, merge parallels) it decides treewidth <= 2 and the planar
residue shapes; without the last two it gives the contraction residue
``classify_component`` matches.  Every check here runs in near-linear
time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import networkx as nx

from .errors import UnknownVertex
from .multigraph import MultiGraph


def induced_subgraph(g: MultiGraph, s: set[int]) -> MultiGraph:
    """Exact induced subgraph G[S].

    Vertices and edges are added in sorted order, the order a full
    ``g.iter_edges()`` scan would give, but only S's own incidences are
    read.
    """
    out = MultiGraph()
    order = sorted(s)
    for v in order:
        if not g.has_vertex(v):
            raise UnknownVertex(f"vertex {v} not in graph")
        out.add_vertex(v)
    for u in order:
        for v, c in g.incidences(u):
            if u <= v and v in s:
                out.add_edge(u, v, c)
    return out


def is_pseudoforest(g: MultiGraph) -> bool:
    """True iff every connected component has at most one cycle.

    Multigraph aware: a component has at most one cycle exactly when its
    edge units do not exceed its vertex count (loops and parallel pairs
    count as cycles), that is when its degrees sum to at most twice its
    vertex count, a loop adding 2 to its vertex's degree.
    """
    return all(sum(g.degree(v) for v in comp) <= 2 * len(comp) for comp in g.components())


def _reduce(
    g: MultiGraph,
    simplify: bool = True,
    order_seed: int | None = None,
    seeds: Iterable[int] | None = None,
) -> MultiGraph:
    """The rewriting engine behind every residue certificate.

    Works on a copy of g and returns the irreducible residue.  The rules:

    - delete a vertex of degree <= 1;
    - smooth a loop-free vertex of degree 2 (its two edge ends join into
      one edge, a parallel copy or a loop when they coincide);
    - with ``simplify``, also drop loops and merge parallel bundles down
      to one edge.  The copy is simplified once up front and every
      smoothing merges the edge it creates at once, so the graph stays
      simple and the other two rules see only degrees.

    A worklist holds the vertices whose degree may have changed; a rewrite
    re-queues only its endpoints, so the engine runs in linear time (the
    series-parallel reduction of Valdes, Tarjan and Lawler).  The residue
    is unique up to isomorphism, so the verdicts built on it do not depend
    on the order; ``order_seed`` shuffles which queued vertex is taken
    next so tests can check that.

    With ``seeds`` the caller vouches that no other vertex of g is
    reducible (with ``simplify``, that g is simple as well): the worklist
    starts from the seeds only and the rules write to ``g.overlay()``, so
    the run costs what it rewrites, however large g is.
    """
    if seeds is None:
        h = g.copy()
        if simplify:
            h.simplify()
        work = list(h.vertices())
    else:
        h = g.overlay()
        work = list(seeds)
    rng = random.Random(order_seed) if order_seed is not None else None
    queued = set(work)
    while work:
        if rng is not None:
            i = rng.randrange(len(work))
            work[i], work[-1] = work[-1], work[i]
        v = work.pop()
        queued.discard(v)
        if not h.has_vertex(v):
            continue
        deg = h.degree(v)
        if deg <= 1:
            touched = h.neighbors(v)
            h.delete_vertex(v)
        elif deg == 2 and not h.loops(v):
            # With simplify the graph is simple, so a != b and the new
            # edge can only be a parallel copy.
            a, b = _smooth(h, v)
            if simplify and h.multiplicity(a, b) > 1:
                h.remove_edge(a, b)
            touched = (a, b)
        else:
            continue
        for u in touched:
            if u not in queued:
                queued.add(u)
                work.append(u)
    return h


def _smooth(h: MultiGraph, v: int) -> tuple[int, int]:
    """Replace a degree-2, loop-free vertex by an edge between its
    neighbors (a parallel edge or a loop when they coincide); return the
    new edge's ends."""
    inc = [(u, c) for u, c in h.incidences(v) if u != v]
    ends: list[int] = []
    for u, c in inc:
        ends.extend([u] * c)
    assert len(ends) == 2
    a, b = ends
    h.delete_vertex(v)
    h.add_edge(a, b)
    return a, b


def is_partial_2_tree(g: MultiGraph) -> bool:
    """True iff g has treewidth at most 2.

    Characterized by the simplifying rewriting (``_reduce`` with all four
    rules) emptying the graph.
    """
    return _reduce(g).n == 0


class ComponentKind(Enum):
    EMPTY = "empty"
    SINGLE_VERTEX = "single-vertex"
    LOOP_VERTEX = "loop-vertex"
    DIPOLE_D3 = "dipole-d3"
    K4 = "k4"
    REJECT = "reject"


@dataclass(frozen=True)
class ComponentClass:
    kind: ComponentKind
    reason: str = ""

    @property
    def accepted(self) -> bool:
        return self.kind is not ComponentKind.REJECT


def classify_component(g: MultiGraph) -> ComponentClass:
    """Classify a connected graph by its contraction residue.

    ``_reduce`` without simplification deletes degree-<=1 vertices and
    smooths degree-2 vertices (multigraph smoothing: the two incident
    edges become one edge, possibly parallel or a loop) until neither
    rule applies; the residue is then matched against the accepted
    shapes.  Accepted residues are exactly those a well-formed
    planar-reducer output can leave behind: nothing, a single vertex, a
    single cycle (loop vertex), the three-edge dipole, or a K4.
    """
    if g.n == 0:
        return ComponentClass(ComponentKind.EMPTY)
    if len(g.components()) != 1:
        return ComponentClass(ComponentKind.REJECT, "input not connected")
    h = _reduce(g, simplify=False)
    if h.n == 0:
        return ComponentClass(ComponentKind.EMPTY)
    if h.n == 1:
        v = next(iter(h.vertices()))
        if h.m == 0:
            return ComponentClass(ComponentKind.SINGLE_VERTEX)
        if h.loops(v) == 1:
            return ComponentClass(ComponentKind.LOOP_VERTEX)
        return ComponentClass(ComponentKind.REJECT, f"{h.loops(v)} loops on one vertex")
    if h.n == 2:
        a, b = sorted(h.vertices())
        if h.loops(a) == 0 and h.loops(b) == 0 and h.multiplicity(a, b) == 3:
            return ComponentClass(ComponentKind.DIPOLE_D3)
        return ComponentClass(ComponentKind.REJECT, "two-vertex residue is not the dipole")
    if h.n == 4 and h.m == 6 and h.is_simple():
        verts = h.sorted_vertices()
        if all(h.multiplicity(u, v) == 1 for i, u in enumerate(verts) for v in verts[i + 1:]):
            return ComponentClass(ComponentKind.K4)
    return ComponentClass(ComponentKind.REJECT, f"residue n={h.n}, m={h.m} unrecognized")


def classify_all(g: MultiGraph) -> list[ComponentClass]:
    return [classify_component(induced_subgraph(g, set(comp))) for comp in g.components()]


def accepts_planar_residue(g: MultiGraph) -> bool:
    """Structural certificate for planar-reducer outputs.

    Runs ``_reduce`` with all four rules: delete degree-<=1 vertices,
    smooth loop-free degree-2 vertices, drop loop edges (a completed
    cycle glued at a cut vertex), and merge parallel bundles down to a
    single edge (cycles glued along a pair of attachment points, the
    dipole included).  Accepts iff every component empties or ends as K4.
    The residue is simple with minimum degree 3, so a residue component
    is K4 exactly when it has 4 vertices, each of degree 3.

    Every accepted graph is planar with treewidth at most 3: undoing the
    rules only subdivides edges, duplicates edges, or attaches pendant
    vertices and cycles, all of which preserve planarity and never push
    treewidth past the K4 core's 3.
    """
    h = _reduce(g)
    return all(
        len(comp) == 4 and all(h.degree(v) == 3 for v in comp) for comp in h.components()
    )


def is_planar(g: MultiGraph) -> bool:
    """Exact planarity of the underlying simple graph.

    Loops and parallel edges never affect planarity, so the test runs on
    the simplified copy.  Decision comes from the left-right planarity
    test; the brute-force side (subdivision search) cross-checks it in
    the test suite.
    """
    h = g.copy()
    h.simplify()
    if h.n <= 4 or h.m <= 8:
        return True
    gx = nx.Graph()
    gx.add_nodes_from(h.vertices())
    gx.add_edges_from((u, v) for u, v, _ in h.iter_edges())
    ok, _ = nx.check_planarity(gx, counterexample=False)
    return bool(ok)
