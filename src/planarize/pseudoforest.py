"""Induced-pseudoforest reducer.

Repeatedly performs the first applicable case from a fixed priority
list, deleting vertices of degree at least 5 first so the working graph
has maximum degree 4.  Vertices moved to the output set S leave the
working graph by contraction or acceptance; the result satisfies
9 |S| >= 9 n - 2 m and the input induced on S is a pseudoforest.

``_match_at`` is the one place a case condition is written, and what it
returns is the step itself (``CaseDescriptor``): the vertices to delete,
the edges to contract and the vertices to accept.  ``apply_case`` takes
any such step with ``solution.take``, ``simplify`` off: no pseudoforest
contraction makes a loop or a parallel edge.  A run calls both through
``_case_at`` and ``_apply``, on the live degree and adjacency maps it
holds, not views made per call.

The case that fires is the minimum (rank, anchor) over the graph; the
reference scan in ``tests/test_pseudoforest.py`` matches every vertex
to find it.  ``reduce_pseudoforest`` takes its cases from a ``CaseQueue``
instead: each vertex is keyed by a lower bound on its rank and is
matched only when it reaches the top, where it either fires (its rank
equals its key) or goes back at its exact rank.  The key is the bound
its degree gives, except at degree 3, where it is the exact rank read
from the neighbours: Deg3AdjDeg4 when one has degree 4 or more,
ThreeRegular otherwise.

A key stays a lower bound until a step touches its vertex.  No case
raises a degree: every deletion and contraction lowers the degrees it
changes, and Deg2NoTriangle, which contracts a into u and so joins u to
w, keeps both degrees and touches both.  So a vertex's degree changes,
or it gains a neighbour, only when a step touches it, and a degree-3
vertex cannot come next to a vertex of degree 4 or more otherwise.
After a step only these go back at their key, when that is below their
live key: the vertices the step touched (the closed neighbourhoods of
the vertices it names, ``apply_case``), the anchor, and the raised
vertices (``_Run.raised``: matched, so put back above their key or
dropped, and not pushed since) within distance 1 of a touched vertex,
or 2 at degree 4, since FourRegC2 and FourRegC3 read that far.  They
are found without a search: a vertex that stays raised after the step
it was matched in is registered on the watch list of every vertex of
that region, and a step reads the lists of the vertices it touched.
The region of a raised vertex y cannot change unseen: that takes an
edge change at a vertex of N[y], which touches that vertex, and the
step then keys y again.  Every vertex with a case so holds a key at
most its rank, and the popped minimum is the scan's minimum.  The one
non-local case, FourRegC4, searches only the anchor's component for a
cycle of tetrahedra.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations

from .casequeue import CaseQueue
from .errors import CaseAnalysisIncomplete, GraphError, StaleDescriptor
from .multigraph import MultiGraph
from .solution import ReductionSolution, TraceStep, drive, take

PREPROCESS = "Preprocess"
HARVEST = "HarvestIsolated"
LEAF = "Leaf"
DEG2_NO_TRIANGLE = "Deg2NoTriangle"
DELTA_A = "DeltaA"
DELTA_B = "DeltaB"
DELTA_C = "DeltaC"
DELTA_D = "DeltaD"
DEG3_ADJ_DEG4 = "Deg3AdjDeg4"
THREE_REGULAR = "ThreeRegular"
FOUR_REG_A = "FourRegA"
FOUR_REG_C1 = "FourRegC1"
FOUR_REG_C2 = "FourRegC2"
FOUR_REG_C3 = "FourRegC3"
FOUR_REG_C4 = "FourRegC4"

_RANKS = {
    PREPROCESS: 0,
    HARVEST: 1,
    LEAF: 2,
    DEG2_NO_TRIANGLE: 3,
    DELTA_A: 4,
    DELTA_B: 5,
    DELTA_C: 6,
    DELTA_D: 7,
    DEG3_ADJ_DEG4: 8,
    THREE_REGULAR: 9,
    FOUR_REG_A: 10,
    FOUR_REG_C1: 11,
    FOUR_REG_C2: 12,
    FOUR_REG_C3: 13,
    FOUR_REG_C4: 14,
}


@dataclass(frozen=True, slots=True, init=False)
class CaseDescriptor:
    """A matched case as the step it takes, in the order ``solution.replay``
    runs a step: delete, then contract each ``(u, v, survivor)``, then
    accept.

    Immutable, and built like ``solution.TraceStep``: ``__init__`` fills
    the slots through their descriptors, at about half the cost of a
    frozen dataclass's generated ``__init__``."""

    label: str
    deleted: tuple[int, ...] = ()
    contracted: tuple[tuple[int, int, int], ...] = ()
    accepted: tuple[int, ...] = ()

    def __init__(self, label: str, deleted: tuple[int, ...] = (),
                 contracted: tuple[tuple[int, int, int], ...] = (),
                 accepted: tuple[int, ...] = ()) -> None:
        _set_label(self, label)
        _set_deleted(self, deleted)
        _set_contracted(self, contracted)
        _set_accepted(self, accepted)

    @property
    def rank(self) -> int:
        return _RANKS[self.label]


_set_label, _set_deleted, _set_contracted, _set_accepted = (
    getattr(CaseDescriptor, name).__set__ for name in CaseDescriptor.__slots__)


# -- local structure helpers -----------------------------------------


def _dropped_pair(g: MultiGraph, a: int) -> tuple[int, int] | None:
    """Of two disjoint non-adjacent pairs covering N(a), the second, which
    FourRegA deletes; the first is kept."""
    nbrs = g.neighbors(a)
    adj = g.adjacency_map()
    for p, q in combinations(nbrs, 2):
        if q in adj[p]:
            continue
        r, s = (x for x in nbrs if x not in (p, q))
        if s not in adj[r]:
            return r, s
    return None


def _tetra_of(g: MultiGraph, v: int) -> tuple[int, ...] | None:
    """The K4 through v, as a sorted 4-tuple, if one exists."""
    nbrs = g.neighbors(v)
    adj = g.adjacency_map()
    for triple in combinations(nbrs, 3):
        b, c, d = triple
        if c in adj[b] and d in adj[b] and d in adj[c]:
            return tuple(sorted((v,) + triple))
    return None


def _k5_component(g: MultiGraph, a: int) -> tuple[int, ...] | None:
    nbrs = g.neighbors(a)
    if any(g.degree(u) != 4 for u in nbrs):
        return None
    adj = g.adjacency_map()
    if all(v in adj[u] for u, v in combinations(nbrs, 2)):
        return tuple(sorted([a] + nbrs))
    return None


def _shared_apex(g: MultiGraph, a: int) -> int | None:
    """e with tetrahedra a,b,c,d and e,b,c,d sharing triangle bcd."""
    nbrs = g.neighbors(a)
    adj = g.adjacency_map()
    for triple in combinations(nbrs, 3):
        b, c, d = triple
        if not (c in adj[b] and d in adj[b] and d in adj[c]):
            continue
        common = set(g.neighbors(b)) & set(g.neighbors(c)) & set(g.neighbors(d))
        common.discard(a)
        for e in sorted(common):
            if e not in adj[a]:
                return e
    return None


def _double_link(g: MultiGraph, a: int) -> tuple[int, int] | None:
    """Two inter-tetrahedron edges (b, e) < (d, g2) joining a's tetrahedron
    to one other; returns (d, e), the first tetrahedron's endpoint of the
    second edge and the second's endpoint of the first."""
    t1 = _tetra_of(g, a)
    if t1 is None:
        return None
    t1set = set(t1)
    links: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for x in t1:
        for y in g.neighbors(x):
            if y in t1set:
                continue
            t2 = _tetra_of(g, y)
            if t2 is None:
                return None
            links.setdefault(t2, []).append((x, y))
    for t2 in sorted(links):
        if len(links[t2]) >= 2:
            (_, e), (d, _) = sorted(links[t2])[:2]
            return d, e
    return None


# -- case matching ----------------------------------------------------


def _match_at(g: MultiGraph, v: int) -> CaseDescriptor | None:
    """Best-priority case anchored at v, from vertex-local structure only.

    FourRegC4 is returned only as a marker (v lies in a tetrahedron), with
    no step; ``_c4_payload`` finds its step on v's component when it
    actually fires.
    """
    return _case_at(g, g.degree_map(), g.adjacency_map(), v)


def _case_at(g: MultiGraph, degree, adj, v: int) -> CaseDescriptor | None:
    """``_match_at`` on g's live degree and adjacency maps, which a run
    reads once, not once per match."""
    row = adj[v]
    deg = degree[v]
    if deg >= 5:
        return CaseDescriptor(PREPROCESS, deleted=(v,))
    if deg == 0:
        return CaseDescriptor(HARVEST, accepted=(v,))
    if deg == 1:
        b = next(iter(row))
        return CaseDescriptor(LEAF, contracted=((v, b, b),))
    if deg == 2:
        if len(row) != 2:
            raise GraphError(f"multigraph state at {v}; the reducer requires simple inputs")
        u, w = row
        if w < u:
            u, w = w, u
        if w not in adj[u]:
            return CaseDescriptor(DEG2_NO_TRIANGLE, contracted=((v, u, u),))
        du, dw = degree[u], degree[w]
        if du == 2 and dw == 2:
            return CaseDescriptor(DELTA_A, accepted=tuple(sorted((v, u, w))))
        (low, b), (high, c) = sorted(((du, u), (dw, w)))
        if low == 2 and high == 3:
            d = next(x for x in adj[c] if x not in (v, b))
            return CaseDescriptor(DELTA_B, deleted=(d,))
        if 3 in (du, dw):
            b = u if du == 3 else w
            c = u if b == w else w
            x = next(y for y in adj[b] if y not in (v, c))
            return CaseDescriptor(DELTA_C, deleted=(c,), contracted=((v, b, b), (b, x, x)))
        # Remaining neighbor degrees are {2,4} or {4,4}; a degree >= 5
        # neighbor can only appear while a Preprocess entry is pending,
        # which outranks this descriptor, so the match stays provisional.
        b = u if du >= 4 else w
        c = u if b == w else w
        return CaseDescriptor(DELTA_D, deleted=(b,), contracted=((v, c, c),))
    if deg == 3:
        b = None
        for u in row:
            if degree[u] >= 4 and (b is None or u < b):
                b = u
        if b is not None:
            return CaseDescriptor(DEG3_ADJ_DEG4, deleted=(b,))
        return CaseDescriptor(THREE_REGULAR, deleted=(v,))
    drop = _dropped_pair(g, v)
    if drop is not None:
        return CaseDescriptor(FOUR_REG_A, deleted=drop)
    comp5 = _k5_component(g, v)
    if comp5 is not None:
        return CaseDescriptor(FOUR_REG_C1, deleted=comp5[:2])
    e = _shared_apex(g, v)
    if e is not None:
        return CaseDescriptor(FOUR_REG_C2, deleted=(v, e))
    link = _double_link(g, v)
    if link is not None:
        return CaseDescriptor(FOUR_REG_C3, deleted=link)
    if _tetra_of(g, v) is not None:
        return CaseDescriptor(FOUR_REG_C4)
    return None


def _c4_payload(g: MultiGraph, anchor: int) -> CaseDescriptor:
    """The step for an all-tetrahedra component: contract each K4 of the
    anchor's component to a node, find a cycle, and delete the two
    off-cycle vertices of the smallest tetrahedron on it.

    The case is the step only when every vertex lies in a tetrahedron and
    no case outranks it, so the anchor is the smallest vertex of the
    graph, and its component is where a search over the whole graph
    would have found its cycle first."""
    comp = g.component_of(anchor)
    tetra: dict[int, tuple[int, ...]] = {}
    rep: dict[int, int] = {}
    for v in comp:
        t = _tetra_of(g, v)
        if t is None:
            raise CaseAnalysisIncomplete(f"vertex {v} lost its tetrahedron")
        tetra[min(t)] = t
        rep[v] = min(t)
    adj: dict[int, set[int]] = {t: set() for t in tetra}
    link: dict[tuple[int, int], tuple[int, int]] = {}
    for u in comp:
        for v in g.neighbors(u):
            tu, tv = rep[u], rep[v]
            if u < v and tu != tv:
                adj[tu].add(tv)
                adj[tv].add(tu)
                link.setdefault((min(tu, tv), max(tu, tv)), (u, v) if tu < tv else (v, u))
    cycle = _find_cycle(adj)
    if cycle is None:
        raise CaseAnalysisIncomplete("tetrahedron graph is acyclic; case analysis bug")
    t0 = min(cycle)
    i = cycle.index(t0)
    prev_t = cycle[i - 1]
    next_t = cycle[(i + 1) % len(cycle)]
    on_cycle = set()
    for other in (prev_t, next_t):
        x, y = link[(min(t0, other), max(t0, other))]
        on_cycle.add(x if rep[x] == t0 else y)
    off = tuple(sorted(set(tetra[t0]) - on_cycle))
    if len(off) != 2:
        raise CaseAnalysisIncomplete("cycle touches a tetrahedron at more than two vertices")
    return CaseDescriptor(FOUR_REG_C4, deleted=off)


def _find_cycle(adj: dict[int, set[int]]) -> list[int] | None:
    """Any cycle in a simple graph given as adjacency sets, via DFS."""
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        parent = {root: -1}
        stack = [(root, -1)]
        order: dict[int, int] = {}
        while stack:
            x, par = stack.pop()
            if x in order:
                continue
            order[x] = len(order)
            parent[x] = par
            seen.add(x)
            for y in sorted(adj[x], reverse=True):
                if y not in order:
                    stack.append((y, x))
                elif y != par:
                    path = [x]
                    cur = x
                    while cur != y:
                        cur = parent[cur]
                        path.append(cur)
                    return list(reversed(path))
    return None


# -- case application --------------------------------------------------


def apply_case(g: MultiGraph, desc: CaseDescriptor, sol: ReductionSolution) -> tuple[TraceStep, set[int]]:
    """Take the step ``desc`` names with ``solution.take``.

    Raises StaleDescriptor, before any change, when a vertex it names or
    an edge it contracts is gone.  The case conditions themselves are not
    checked again: replay, the integer bound and the certificate on G[S]
    vouch for a run.  Returns the recorded step and the touched vertices:
    the live ones among the closed neighbourhoods of the vertices the
    step names, which hold every vertex whose incident edges changed.
    """
    return _apply(g, g.adjacency_map(), desc, sol)


def _apply(g: MultiGraph, adj, desc: CaseDescriptor, sol: ReductionSolution) -> tuple[TraceStep, set[int]]:
    """``apply_case`` on g's live adjacency map, as ``_case_at`` is to
    ``_match_at``."""
    touched: set[int] = set()
    for v in desc.deleted:
        if v not in adj:
            raise StaleDescriptor(f"{desc}: vertex {v} is gone")
        touched.add(v)
        touched.update(adj[v])
    for u, v, _ in desc.contracted:
        if u not in adj or v not in adj[u]:
            raise StaleDescriptor(f"{desc}: edge ({u}, {v}) is gone")
        touched.add(u)
        touched.update(adj[u])
        touched.update(adj[v])
    for v in desc.accepted:
        if v not in adj:
            raise StaleDescriptor(f"{desc}: vertex {v} is gone")
        touched.add(v)
        touched.update(adj[v])
    if desc.label == DELTA_B:
        (d,) = desc.deleted
        if g.degree(d) < 3:
            raise CaseAnalysisIncomplete(
                f"DeltaB fired with deg({d}) = {g.degree(d)}; earlier cases missed it"
            )

    step = take(g, sol, desc.label, desc.deleted, desc.contracted, desc.accepted)
    touched &= adj.keys()
    return step, touched


# -- driver ------------------------------------------------------------


# A lower bound on the rank of any case anchored at a vertex of the given
# degree: degree 2 matches DeltaA-D or Deg2NoTriangle (ranks 3-7), degree
# 4 one of the FourReg cases (10-14) or none; degrees 0, 1 and >= 5 have
# exactly one case each.  Degree 3 is keyed at its exact rank (``_Run._keyed``).
_DEGREE_BOUND = (_RANKS[HARVEST], _RANKS[LEAF], _RANKS[DEG2_NO_TRIANGLE],
                 _RANKS[DEG3_ADJ_DEG4], _RANKS[FOUR_REG_A])
_DEG3_ADJ_DEG4 = _RANKS[DEG3_ADJ_DEG4]
_THREE_REGULAR = _RANKS[THREE_REGULAR]
_PREPROCESS = _RANKS[PREPROCESS]


class _Run:
    """One reduction: the working graph, the solution and the case queue.

    A vertex is queued at a lower bound on its rank (``_keyed``) and
    matched only when it reaches the top (``CaseQueue.pop``), so the case
    that fires is the minimum (rank, v) over the graph.  ``raised`` maps
    each vertex matched and not pushed since to the step that registered
    it, and ``watch[x]`` holds the (vertex, step) registrations under x;
    an entry whose step is not its vertex's in ``raised`` is stale.
    ``keyed`` counts the vertices keyed again after steps, ``matched``
    the matches made and ``registered`` the watch entries made: work
    counters, independent of the host.

    A step costs its graph change and a few dictionary reads per vertex
    it touched.  Keys are computed in one loop per step over the live
    degree and adjacency maps and handed to ``CaseQueue.push_all`` as
    (key, vertex) entries; a match calls ``_case_at`` once on the same
    maps and reads its rank from ``_RANKS``.
    """

    def __init__(self, g: MultiGraph) -> None:
        self.g = g
        self.sol = ReductionSolution("pseudoforest", g.n, g.m, set(), bound_num=2, bound_den=9)
        self.degree = g.degree_map()
        self.adj = g.adjacency_map()
        self.queue = CaseQueue()
        self.queue.push_all(self._keyed(g.vertices()))
        self.raised: dict[int, int] = {}
        self.watch: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
        self.fresh: list[int] = []  # matched during the current step
        self.keyed = 0
        self.matched = 0
        self.registered = 0

    def _keyed(self, vertices) -> list[tuple[int, int]]:
        """(key, v) for each of the vertices: the degree bound of v, or at
        degree 3 its exact rank, Deg3AdjDeg4 next to a vertex of degree 4
        or more and ThreeRegular otherwise."""
        degree, adj = self.degree, self.adj
        entries = []
        for v in vertices:
            deg = degree[v]
            if deg == 3:
                key = _THREE_REGULAR
                for u in adj[v]:
                    if degree[u] >= 4:
                        key = _DEG3_ADJ_DEG4
                        break
            else:
                key = _DEGREE_BOUND[deg] if deg < 5 else _PREPROCESS
            entries.append((key, v))
        return entries

    def _match(self, v: int) -> tuple[int, CaseDescriptor] | None:
        self.matched += 1
        self.fresh.append(v)
        desc = _case_at(self.g, self.degree, self.adj, v)
        return None if desc is None else (_RANKS[desc.label], desc)

    def _reads(self, y: int) -> set[int]:
        """What the cases at y read: N[y], or N2[y] at degree 4 (FourRegC2
        and FourRegC3 read the neighbourhoods of neighbours; every other
        case reads only the anchor's own neighbourhood)."""
        adj = self.adj
        row = adj[y]
        if self.degree[y] == 4:
            return set(row).union(*map(adj.__getitem__, row))
        near = set(row)
        near.add(y)
        return near

    def step(self) -> bool:
        """Apply the next case; False once no vertex has one."""
        g, queue, raised, watch, adj = self.g, self.queue, self.raised, self.watch, self.adj
        found = queue.pop(self._match)
        if found is None:
            return False
        _, v, desc = found
        if desc.label == FOUR_REG_C4:
            desc = _c4_payload(g, v)
        step, touched = _apply(g, adj, desc, self.sol)
        # The vertices that left: those deleted, and those that joined S.
        gone = step.deleted + step.s_added
        for x in gone:
            queue.discard(x)
        if raised:
            for x in gone:
                raised.pop(x, None)
        if watch:
            for x in gone:
                watch.pop(x, None)
        # A vertex whose live key is at or below its ``_keyed`` key keeps it
        # valid until a step touches it (module docstring), and once pushed
        # it holds such a key, so it leaves ``raised``.  The others are the
        # anchor, whose entry was just popped and which may lie far from
        # touched (FourRegC4 deletes from the smallest tetrahedron on a
        # cycle, which need not be the anchor's), and the raised vertices
        # whose region holds a touched vertex: those registered under one,
        # and those matched in this step, which are not registered yet.
        if v in adj:
            touched.add(v)
        near = set()
        if raised:
            for x in touched:
                for y, at in watch.pop(x, ()):
                    if raised.get(y) == at:
                        near.add(y)
        index = len(self.sol.trace)
        for y in self.fresh:
            if y in touched or y in raised or y not in adj:
                continue
            region = self._reads(y)
            if touched.isdisjoint(region):
                raised[y] = index
                self.registered += len(region)
                entry = (y, index)
                for x in region:
                    watch[x].append(entry)
            else:
                near.add(y)
        self.fresh.clear()
        touched |= near
        self.keyed += len(touched)
        queue.push_all(self._keyed(touched))
        for y in near:
            raised.pop(y, None)
        return True


def reduce_pseudoforest(g_in: MultiGraph) -> ReductionSolution:
    """Compute S with 9 |S| >= 9 n - 2 m and G_in[S] a pseudoforest."""
    return drive(g_in, _Run).sol
