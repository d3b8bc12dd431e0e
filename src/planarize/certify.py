"""Independent checkers for the properties the reducers promise.

Everything here is deliberately separate from the reducers: these
predicates are run against the induced subgraph of the *original* input,
so a reducer bug cannot vouch for itself.

The residue certificates share one worklist rewriting engine,
``_reduce``, which reads the graph as plain neighbour sets (so loops and
parallel edges vanish as they are read), deletes degree <= 1 and smooths
degree 2; it decides treewidth <= 2 and the planar residue shapes.
Every check here runs in near-linear time.
"""

from __future__ import annotations

from typing import Iterable, Mapping

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


def _reduce(
    adj: Mapping[int, Iterable[int]], work: Iterable[int]
) -> tuple[dict[int, set[int]], int]:
    """The rewriting engine behind every residue certificate.

    Reads ``adj``, a mapping from each vertex to its neighbours, and never
    writes to it.  A row is copied the first time it is read, as a set
    without the vertex itself, so loops and parallel edges vanish as they
    are read.  On that simple graph the rules are: delete a vertex of
    degree <= 1; delete a vertex of degree 2 and join its two neighbours
    (a set add, so an edge already there stays one edge).

    The worklist starts at ``work`` (the caller vouches that no other
    vertex is reducible) and a rewrite re-queues only its endpoints, so
    the run is linear (the series-parallel reduction of Valdes, Tarjan and
    Lawler) and costs what it rewrites, however large ``adj`` is.  The
    residue is unique up to isomorphism, so no verdict depends on the
    order.  Deleting v reads the row of every live neighbour of v to
    discard v, so a row not yet read has never changed and a lazy read is
    never stale.

    Returns the rows read that are still left, and how many vertices were
    deleted.
    """
    rows: dict[int, set[int]] = {}

    def row(v: int) -> set[int]:
        r = rows.get(v)
        if r is None:
            r = rows[v] = set(adj[v])
            r.discard(v)
        return r

    queued = set(work)
    stack = list(queued)
    deleted = 0
    while stack:
        v = stack.pop()
        queued.discard(v)
        nbrs = row(v)
        if len(nbrs) > 2:
            continue
        del rows[v]
        deleted += 1
        for u in nbrs:
            row(u).discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            rows[a].add(b)
            rows[b].add(a)
        for u in nbrs:
            if u not in queued:
                queued.add(u)
                stack.append(u)
    return rows, deleted


def is_partial_2_tree(g: MultiGraph) -> bool:
    """True iff g has treewidth at most 2.

    Characterized by the rewriting of ``_reduce`` emptying the graph.
    """
    return not _reduce(g.adjacency_map(), g.vertices())[0]


def accepts_planar_residue(g: MultiGraph) -> bool:
    """Structural certificate for planar-reducer outputs.

    Runs ``_reduce`` from every vertex: loops (a completed cycle glued at
    a cut vertex) and parallel edges (cycles glued along a pair of
    attachment points, the dipole included) vanish as rows are read,
    degree-<=1 vertices are deleted and degree-2 vertices smoothed.
    Accepts iff every component empties or ends as K4.  The residue is
    simple with minimum degree 3, so that holds exactly when every vertex
    left has three neighbours and the two ends of every edge have the same
    closed neighbourhood.  Every vertex was seeded, so every row left has
    been read.

    Every accepted graph is planar with treewidth at most 3: undoing the
    rules only subdivides edges, duplicates edges, or attaches pendant
    vertices and cycles, all of which preserve planarity and never push
    treewidth past the K4 core's 3.
    """
    rows = _reduce(g.adjacency_map(), g.vertices())[0]
    return all(
        len(r) == 3 and all(rows[u] | {u} == r | {v} for u in r) for v, r in rows.items()
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
