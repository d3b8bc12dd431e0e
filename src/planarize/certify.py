"""Independent checkers for the properties the reducers promise.

Everything here is deliberately separate from the reducers: these
predicates are run against the induced subgraph of the *original* input,
so a reducer bug cannot vouch for itself.

The residue certificates share one worklist rewriting engine,
``_reduce`` (delete degree <= 1, smooth degree 2, drop loops, merge
parallels), which decides treewidth <= 2 and the planar residue shapes.
Every check here runs in near-linear time.
"""

from __future__ import annotations

from typing import Iterable

from .multigraph import MultiGraph, from_rows


def induced_subgraph(g: MultiGraph, s: set[int]) -> MultiGraph:
    """Exact induced subgraph G[S].

    Vertices and rows are in sorted order, the order a full
    ``g.iter_edges()`` scan would give, but only S's own incidences are
    read.
    """
    return from_rows({v: {u: c for u, c in g.incidences(v) if u in s} for v in sorted(s)})


def is_pseudoforest(g: MultiGraph) -> bool:
    """True iff every connected component has at most one cycle.

    Multigraph aware: a component has at most one cycle exactly when its
    edge units do not exceed its vertex count (loops and parallel pairs
    count as cycles), that is when its degrees sum to at most twice its
    vertex count, a loop adding 2 to its vertex's degree.
    """
    return all(sum(g.degree(v) for v in comp) <= 2 * len(comp) for comp in g.components())


def _reduce(g: MultiGraph, seeds: Iterable[int] | None = None) -> MultiGraph:
    """The rewriting engine behind every residue certificate.

    Works on a copy of g and returns the irreducible residue.  The rules:

    - delete a vertex of degree <= 1;
    - smooth a vertex of degree 2 (its two edge ends join into one
      edge);
    - drop loops and merge parallel bundles down to one edge.  The copy
      is simplified once up front and every smoothing merges the edge it
      creates at once, so the graph stays simple and the other two rules
      see only degrees.

    A worklist holds the vertices whose degree may have changed; a rewrite
    re-queues only its endpoints, so the engine runs in linear time (the
    series-parallel reduction of Valdes, Tarjan and Lawler).  The residue
    is unique up to isomorphism, so the verdicts built on it do not depend
    on the order.

    With ``seeds`` the caller vouches that g is simple and no other vertex
    of it is reducible: the worklist starts from the seeds only and the
    rules write to ``g.overlay()``, so the run costs what it rewrites,
    however large g is.
    """
    if seeds is None:
        h = g.copy()
        h.simplify()
        work = list(h.vertices())
    else:
        h = g.overlay()
        work = list(seeds)
    queued = set(work)
    while work:
        v = work.pop()
        queued.discard(v)
        if not h.has_vertex(v):
            continue
        deg = h.degree(v)
        if deg <= 1:
            touched = h.neighbors(v)
            h.delete_vertex(v)
        elif deg == 2:
            # The graph is simple: smooth v, merging a-b if it is there.
            a, b = touched = sorted(h.neighbor_view(v))
            h.delete_vertex(v)
            if b not in h.neighbor_view(a):
                h.add_edge(a, b)
        else:
            continue
        for u in touched:
            if u not in queued:
                queued.add(u)
                work.append(u)
    return h


def is_partial_2_tree(g: MultiGraph) -> bool:
    """True iff g has treewidth at most 2.

    Characterized by the simplifying rewriting (``_reduce`` with all four
    rules) emptying the graph.
    """
    return _reduce(g).n == 0


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

    Loops and parallel edges never affect planarity, so the test sees
    each adjacent pair once and no loops.  Decision comes from the
    left-right planarity test, whose verdict is a property of the graph
    and not of the order its edges are given in; the brute-force side
    (subdivision search) cross-checks it in the test suite.  networkx is
    imported here, on first use, so that a process that checks only the
    other certificates never loads it.
    """
    rows = g.adjacency_map()
    pairs = [(u, v) for u, row in rows.items() for v in row if u < v]
    if g.n <= 4 or len(pairs) <= 8:
        return True
    import networkx as nx

    gx = nx.Graph()
    gx.add_nodes_from(rows)
    gx.add_edges_from(pairs)
    ok, _ = nx.check_planarity(gx, counterexample=False)
    return bool(ok)
