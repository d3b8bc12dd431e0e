"""Independent checkers for the properties the reducers promise.

Everything here is deliberately separate from the reducers: these
predicates are run against the induced subgraph of the *original* input,
so a reducer bug cannot vouch for itself.

The residue certificates share one worklist rewriting engine,
``_reduce``, which reads the graph as plain neighbour sets (so loops and
parallel edges vanish as they are read), deletes degree <= 1 and smooths
degree 2, and logs each deletion; it decides treewidth <= 2 and the
planar residue shapes.  Planarity is certified in the style of
Mehlhorn, McConnell, Naeher and Schweitzer ("Certifying algorithms",
Computer Science Review 2011): when the residue accepts,
``rotation_system`` undoes the log into a planar embedding (Boyer and
Myrvold, JGAA 2004), and ``is_embedding``, which shares no code with
either, checks it by Euler's formula.  Every check here runs in
near-linear time; networkx is loaded only for a graph whose residue
does not accept.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import CertificateFailure
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


# What ``_reduce`` returns: the residue rows and the deletion log.
_Residue = tuple[dict[int, set[int]], list[tuple[int, tuple[int, ...], bool]]]


def _reduce(adj: Mapping[int, Iterable[int]], work: Iterable[int]) -> _Residue:
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

    Returns the rows read that are still left, and the deletion log: one
    ``(v, its 0-2 neighbours, whether those two were already adjacent)``
    entry per deleted vertex, in deletion order.
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
    log: list[tuple[int, tuple[int, ...], bool]] = []
    while stack:
        v = stack.pop()
        queued.discard(v)
        nbrs = row(v)
        if len(nbrs) > 2:
            continue
        del rows[v]
        for u in nbrs:
            row(u).discard(v)
        existed = False
        if len(nbrs) == 2:
            a, b = nbrs
            existed = b in rows[a]
            rows[a].add(b)
            rows[b].add(a)
        log.append((v, tuple(nbrs), existed))
        for u in nbrs:
            if u not in queued:
                queued.add(u)
                stack.append(u)
    return rows, log


def is_partial_2_tree(g: MultiGraph) -> bool:
    """True iff g has treewidth at most 2.

    Characterized by the rewriting of ``_reduce`` emptying the graph.
    """
    return not _reduce(g.adjacency_map(), g.vertices())[0]


def _all_k4(rows: dict[int, set[int]]) -> bool:
    """True iff every component of a residue from ``_reduce`` is K4.  The
    residue is simple with minimum degree 3, so that holds exactly when
    every vertex has three neighbours and the two ends of every edge have
    the same closed neighbourhood."""
    return all(
        len(r) == 3 and all(rows[u] | {u} == r | {v} for u in r) for v, r in rows.items()
    )


def accepts_planar_residue(g: MultiGraph) -> bool:
    """Structural certificate for planar-reducer outputs.

    Runs ``_reduce`` from every vertex: loops (a completed cycle glued at
    a cut vertex) and parallel edges (cycles glued along a pair of
    attachment points, the dipole included) vanish as rows are read,
    degree-<=1 vertices are deleted and degree-2 vertices smoothed.
    Accepts iff every component empties or ends as K4.  Every vertex was
    seeded, so every row left has been read.

    Every accepted graph is planar with treewidth at most 3: undoing the
    rules only subdivides edges, duplicates edges, or attaches pendant
    vertices and cycles, all of which preserve planarity and never push
    treewidth past the K4 core's 3.  ``rotation_system`` makes the
    planarity half of that argument constructive.
    """
    return _all_k4(_reduce(g.adjacency_map(), g.vertices())[0])


def _insert(nxt: dict[int, int], prv: dict[int, int], x: int, y: int) -> None:
    """Put y right after x in one cyclic order, kept as successor and
    predecessor maps; x == y starts an empty order."""
    z = nxt.get(x, y)
    nxt[x] = prv[z] = y
    nxt[y], prv[y] = z, x


def _unlink(nxt: dict[int, int], prv: dict[int, int], x: int) -> None:
    p, z = prv.pop(x), nxt.pop(x)
    nxt[p], prv[z] = z, p


def rotation_system(g: MultiGraph, residue: _Residue | None = None) -> dict[int, list[int]] | None:
    """A planar embedding of g's underlying simple graph, as each vertex's
    neighbours in cyclic order, or None when ``_reduce`` does not leave
    only K4s (the residue of ``accepts_planar_residue``).  ``residue`` is
    what ``_reduce`` returned when run from every vertex of g, for a
    caller that has already run it (``planar_verdicts``); without it the
    builder runs ``_reduce`` itself.

    Each K4 starts from one fixed embedding: a triangle t0 t1 t2 around a
    hub h.  The deletion log is then undone, last deletion first, so each
    undo meets the graph exactly as that deletion left it:

    - a vertex deleted with one neighbour a goes anywhere in a's order;
    - a smoothing of v between a and b whose a-b edge it made takes the
      place of b at a and of a at b;
    - one whose a-b edge was already there goes right after b at a and
      right before a at b, so a v b becomes a triangular face beside that
      edge.

    K4's embedding has V - E + F = 4 - 6 + 4 = 2.  Undoing a pendant or
    a smoothing that made its edge adds one vertex and one edge; undoing
    one beside an existing edge adds a vertex, two edges and the triangle
    face; an isolated vertex adds a component and its face.  So V - E + F
    = 2C holds throughout.  ``is_embedding`` checks the result; it shares
    no code with this builder.
    """
    rows, log = _reduce(g.adjacency_map(), g.vertices()) if residue is None else residue
    if not _all_k4(rows):
        return None
    order: dict[int, tuple[dict[int, int], dict[int, int]]] = {}

    def cycle(v: int, cyc: tuple[int, ...]) -> None:
        order[v] = (dict(zip(cyc, cyc[1:] + cyc[:1])), dict(zip(cyc[1:] + cyc[:1], cyc)))

    for t0, r in rows.items():
        if t0 not in order:
            t1, t2, h = r
            cycle(t0, (t1, h, t2))
            cycle(t1, (t2, h, t0))
            cycle(t2, (t0, h, t1))
            cycle(h, (t0, t1, t2))
    for v, nbrs, existed in reversed(log):
        if len(nbrs) == 2:
            a, b = nbrs
            if existed:
                _insert(*order[a], b, v)
                _insert(*order[b], order[b][1][a], v)
            else:
                _insert(*order[a], b, v)
                _unlink(*order[a], b)
                _insert(*order[b], a, v)
                _unlink(*order[b], a)
        elif nbrs:
            nxt, prv = order[nbrs[0]]
            _insert(nxt, prv, next(iter(nxt), v), v)
        cycle(v, nbrs)
    rotation = {}
    for v, (nxt, _) in order.items():
        cyc, u = [], next(iter(nxt), None)
        for _ in nxt:
            cyc.append(u)
            u = nxt[u]
        rotation[v] = cyc
    return rotation


def _embedding_fault(g: MultiGraph, rotation: Mapping[int, Sequence[int]]) -> str | None:
    """Why ``rotation`` is not a planar embedding of g's underlying simple
    graph, or None when it is one."""
    rows = g.adjacency_map()
    if rotation.keys() != rows.keys():
        return "the rotations do not cover exactly the graph's vertices"
    succ, edges, faces = {}, 0, 0
    for v, row in rows.items():
        cyc, nbrs = list(rotation[v]), set(row) - {v}
        if len(cyc) != len(nbrs) or set(cyc) != nbrs:
            return f"the rotation at {v} is not a cyclic order of exactly its neighbours"
        succ[v] = dict(zip(cyc, cyc[1:] + cyc[:1]))
        edges += len(nbrs)
        faces += not nbrs  # an isolated vertex is one face
    edges //= 2
    # Dart u -> x is entry u of succ[x]; it is followed by x -> succ[x][u].
    for v, s in succ.items():
        while s:
            faces += 1
            u, x = next(iter(s)), v
            while u in succ[x]:
                u, x = x, succ[x].pop(u)
    comps, seen = 0, set()
    for v in rows:
        if v not in seen:
            comps += 1
            seen.add(v)
            stack = [v]
            while stack:
                for w in rows[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    if len(rows) - edges + faces != 2 * comps:
        return f"V={len(rows)} E={edges} F={faces} C={comps}, so V - E + F != 2C"
    return None


def is_embedding(g: MultiGraph, rotation: Mapping[int, Sequence[int]]) -> bool:
    """True iff ``rotation`` is a planar embedding of g's underlying simple
    graph: every vertex has a cyclic order of exactly its neighbours, and
    tracing faces gives V - E + F = 2C, genus 0 in every component."""
    return _embedding_fault(g, rotation) is None


def is_planar(g: MultiGraph, residue: _Residue | None = None) -> bool:
    """Exact planarity of the underlying simple graph.

    Loops and parallel edges never affect planarity, so the test sees
    each adjacent pair once and no loops.  Up to 4 vertices or 8 such
    pairs the answer is yes.  When ``rotation_system`` builds a witness
    (the residue accepts, as it does on every planar reducer output), the
    answer is yes once ``is_embedding`` accepts it; a witness it rejects
    is a fault, raised as ``CertificateFailure`` and never passed on to
    another test.  Any other graph goes to the left-right planarity test
    of networkx, imported here on first use, so that a process that meets
    only accepted residues never loads it; the brute-force side
    (subdivision search) cross-checks it in the test suite.  ``residue``
    is passed on to ``rotation_system``.
    """
    rows = g.adjacency_map()
    pairs = [(u, v) for u, row in rows.items() for v in row if u < v]
    if g.n <= 4 or len(pairs) <= 8:
        return True
    rotation = rotation_system(g, residue)
    if rotation is not None:
        fault = _embedding_fault(g, rotation)
        if fault is not None:
            raise CertificateFailure(f"planar witness rejected: {fault}")
        return True
    import networkx as nx

    gx = nx.Graph()
    gx.add_nodes_from(rows)
    gx.add_edges_from(pairs)
    ok, _ = nx.check_planarity(gx, counterexample=False)
    return bool(ok)


def planar_verdicts(g: MultiGraph) -> tuple[bool, bool]:
    """``(is_planar(g), accepts_planar_residue(g))`` from one ``_reduce``
    pass: the witness is built from the residue and deletion log that
    the structure verdict reads.  Each function alone runs its own pass;
    a checked planar run needs both verdicts, so it runs this instead."""
    residue = _reduce(g.adjacency_map(), g.vertices())
    return is_planar(g, residue), _all_k4(residue[0])
