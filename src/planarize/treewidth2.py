"""Treewidth-2 reducer.

After deleting vertices of degree 5 or more, the loop contracts an edge
at any vertex of degree 1 or 2 (adding the vertex to S and simplifying),
otherwise deletes a vertex of the largest degree adjacent to some
degree-3 vertex, otherwise deletes a maximum-degree vertex.  Isolated
vertices are harvested into S immediately.  The output satisfies
5 |S| >= 5 n - m and the input induced on S has treewidth at most 2.

The amortized accounting charges -5 per deleted vertex and +1 per edge
unit consumed (contracted, removed by simplification, or deleted with a
vertex); ``solution.replay`` recomputes it from the trace.
"""

from __future__ import annotations

import heapq

from .errors import CaseAnalysisIncomplete
from .multigraph import MultiGraph
from .solution import ReductionSolution, TraceStep, check_result, require_simple

PREPROCESS = "Preprocess"
CONTRACT_DEG12 = "ContractDeg12"
DELETE_ADJ_DEG3 = "DeleteAdjDeg3"
DELETE_MAX_DEG = "DeleteMaxDeg"
HARVEST = "HarvestIsolated"


class _Buckets:
    """Degree-indexed lazy heaps over the working graph."""

    def __init__(self, g: MultiGraph) -> None:
        self.g = g
        self.h0: list[int] = []
        self.h12: list[int] = []
        self.h3_with4: list[int] = []
        self.h3: list[int] = []
        self.h4: list[int] = []
        self.hpre: list[int] = []
        for v in g.vertices():
            self.push(v)

    def push(self, v: int) -> None:
        g = self.g
        if not g.has_vertex(v):
            return
        d = g.degree(v)
        if d >= 5:
            heapq.heappush(self.hpre, v)
        elif d == 0:
            heapq.heappush(self.h0, v)
        elif d <= 2:
            heapq.heappush(self.h12, v)
        elif d == 3:
            if any(g.degree(u) == 4 for u in g.neighbors(v)):
                heapq.heappush(self.h3_with4, v)
            heapq.heappush(self.h3, v)
        else:
            heapq.heappush(self.h4, v)

    def peek(self, heap: list[int], want) -> int | None:
        """The smallest live vertex of heap that passes want, left in
        place; stale entries in front of it are dropped.  A vertex taken
        from hpre, h0, h12 or h4 leaves the graph in that step, so its
        entry goes stale."""
        g = self.g
        while heap:
            v = heap[0]
            if g.has_vertex(v) and want(v):
                return v
            heapq.heappop(heap)
        return None


def reduce_treewidth2(g_in: MultiGraph) -> ReductionSolution:
    """Compute S with 5 |S| >= 5 n - m and G_in[S] of treewidth <= 2."""
    require_simple(g_in)
    g = g_in.copy()
    sol = ReductionSolution("tw2", g_in.n, g_in.m, set(), bound_num=1, bound_den=5)
    bk = _Buckets(g)

    def repush(vs) -> None:
        for v in vs:
            bk.push(v)

    def delete(label: str, v: int) -> None:
        nbrs = g.neighbors(v)
        units = g.delete_vertex(v)
        sol.trace.append(TraceStep(label, deleted=(v,), removed_edges=units))
        repush(nbrs)
        # Second ring: a neighbor dropping from 5 to 4 can turn its
        # own degree-3 neighbors into deletion anchors.
        for x in nbrs:
            if g.has_vertex(x):
                repush(g.neighbors(x))

    while g.n > 0:
        v = bk.peek(bk.hpre, lambda x: g.degree(x) >= 5)
        if v is not None:
            delete(PREPROCESS, v)
            continue

        v = bk.peek(bk.h0, lambda x: g.degree(x) == 0)
        if v is not None:
            orig = g.origin(v)
            g.delete_vertex(v)
            sol.s.add(orig)
            sol.trace.append(TraceStep(HARVEST, accepted=(v,), s_added=(orig,)))
            continue

        v = bk.peek(bk.h12, lambda x: 1 <= g.degree(x) <= 2)
        if v is not None:
            u = g.neighbors(v)[0]
            affected = set(g.neighbors(v)) | set(g.neighbors(u)) | {u}
            orig = g.origin(v)
            g.contract_edge(v, u, u)
            cleaned = g.simplify_at(u)
            sol.s.add(orig)
            sol.trace.append(
                TraceStep(
                    CONTRACT_DEG12,
                    contracted=((v, u, u),),
                    removed_edges=1 + cleaned,
                    s_added=(orig,),
                    simplified=True,
                )
            )
            affected.discard(v)
            repush(x for x in affected if g.has_vertex(x))
            if g.has_vertex(u):
                repush(g.neighbors(u))
            continue

        # No low-degree vertices left: delete next to a degree-3 vertex if
        # one exists, preferring the globally largest adjacent degree.
        a = bk.peek(bk.h3_with4, lambda x: g.degree(x) == 3
                    and any(g.degree(u) == 4 for u in g.neighbors(x)))
        if a is not None:
            delete(DELETE_ADJ_DEG3, min(u for u in g.neighbors(a) if g.degree(u) == 4))
            continue

        a = bk.peek(bk.h3, lambda x: g.degree(x) == 3)
        if a is not None:
            # Degrees never rise once no vertex has degree 5 or more, so a
            # new 3-next-to-4 pair can only appear at a re-pushed vertex.
            if any(g.degree(u) == 4 for u in g.neighbors(a)):
                raise CaseAnalysisIncomplete(
                    f"degree-3 vertex {a} has a degree-4 neighbour the buckets missed"
                )
            delete(DELETE_ADJ_DEG3, min(g.neighbors(a)))
            continue

        # Only degree-4 vertices remain once the earlier branches pass.
        v = bk.peek(bk.h4, lambda x: g.degree(x) == 4)
        if v is not None:
            delete(DELETE_MAX_DEG, v)
            continue

        raise CaseAnalysisIncomplete(f"no case matched with n={g.n}, m={g.m}")

    return check_result(sol)
