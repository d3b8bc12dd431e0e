"""Treewidth-2 reducer.

After deleting vertices of degree 5 or more, the loop contracts an edge
at any vertex of degree 1 or 2 (adding the vertex to S and simplifying),
otherwise deletes a vertex of the largest degree adjacent to some
degree-3 vertex, otherwise deletes a maximum-degree vertex.  Isolated
vertices are harvested into S immediately.  The output satisfies
5 |S| >= 5 n - m and the input induced on S has treewidth at most 2.

The amortized accounting charges -5 per deleted vertex and +1 per edge
unit consumed (contracted, removed by simplification, or deleted with a
vertex); ``check_result`` sums it over the trace, which replay checks.

Cases are found through a ``CaseQueue``: each vertex is queued at a lower
bound on its rank read from its degree, ``_match`` (the one place the
case conditions are written) runs only when it reaches the top, and
after a step the removed vertex is discarded and its neighbours are
queued again.
``tests/test_treewidth2.py`` keeps the earlier bucket heaps and checks
that the two agree step by step.
"""

from __future__ import annotations

from .casequeue import CaseQueue
from .multigraph import MultiGraph
from .solution import ReductionSolution, drive, take

PREPROCESS = "Preprocess"
CONTRACT_DEG12 = "ContractDeg12"
DELETE_ADJ_DEG3 = "DeleteAdjDeg3"
DELETE_MAX_DEG = "DeleteMaxDeg"
HARVEST = "HarvestIsolated"


# Ranks are positions in this table; DeleteAdjDeg3 takes two, the
# deletion next to a degree-3 vertex that has a degree-4 neighbour first.
_LABELS = (PREPROCESS, HARVEST, CONTRACT_DEG12, DELETE_ADJ_DEG3, DELETE_ADJ_DEG3, DELETE_MAX_DEG)

# A lower bound on the rank of a vertex of each degree below 5 (degree 5
# or more is 0): only a degree-3 vertex has two possible ranks.
_DEGREE_KEY = (1, 2, 2, 3, 5)


class _Run:
    """One reduction: the working graph, the solution and the case queue.

    Every vertex is queued at its degree key.  Degrees never rise, so a
    rank falls only at a vertex whose degree changed or that gained a
    neighbour; both are neighbours of the vertex a step removes, and they
    are queued again after it.

    A step costs its graph change and a few dictionary reads: the keys
    and ``_match`` read the live degree and adjacency maps, with no check
    per read, and take the smallest neighbour they need with ``min`` over
    a row, unsorted.  The working graph stays simple (every contraction
    simplifies), so a row holds exactly the distinct neighbours.

    ``matched`` counts the ``_match`` calls and ``queue.popped`` the
    queue's pops: work counters, independent of the host.
    """

    def __init__(self, g: MultiGraph) -> None:
        self.g = g
        self.sol = ReductionSolution("tw2", g.n, g.m, set(), bound_num=1, bound_den=5)
        self.degree = g.degree_map()
        self.adj = g.adjacency_map()
        self.queue = CaseQueue()
        self.queue.push_all(self._keyed(g.vertices()))
        self.matched = 0

    def _keyed(self, vertices) -> list[tuple[int, int]]:
        """(degree key, v) for each of the vertices."""
        degree = self.degree
        return [(_DEGREE_KEY[d] if (d := degree[v]) < 5 else 0, v) for v in vertices]

    def _match(self, v: int) -> tuple[int, int] | None:
        """(rank, the vertex the step removes) of the case anchored at v."""
        self.matched += 1
        degree = self.degree
        d = degree[v]
        if d >= 5:
            return 0, v
        if d == 0:
            return 1, v
        if d <= 2:
            return 2, v
        if d == 4:
            return 5, v
        # When this case fires no vertex has degree 5 or more, and none ever
        # will again, so "degree 4 or more" reads "degree 4" there; read this
        # way, v's rank never falls while it keeps its neighbours.
        row = self.adj[v]
        b = None
        for u in row:
            if degree[u] >= 4 and (b is None or u < b):
                b = u
        return (4, min(row)) if b is None else (3, b)

    def step(self) -> bool:
        """Apply the next case; False once no vertex has one."""
        g, sol, queue = self.g, self.sol, self.queue
        found = queue.pop(self._match)
        if found is None:
            return False
        rank, _, x = found
        label = _LABELS[rank]
        nbrs = list(self.adj[x])
        if label == HARVEST:
            take(g, sol, label, accepted=(x,))
        elif label == CONTRACT_DEG12:
            u = min(nbrs)
            take(g, sol, label, contracted=((x, u, u),), simplify=True)
        else:
            take(g, sol, label, deleted=(x,))
        # x need not be the anchor (DeleteAdjDeg3 removes a neighbour of
        # it), so its own entry may still be live.
        queue.discard(x)
        queue.push_all(self._keyed(nbrs))
        return True


def reduce_treewidth2(g_in: MultiGraph) -> ReductionSolution:
    """Compute S with 5 |S| >= 5 n - m and G_in[S] of treewidth <= 2."""
    return drive(g_in, _Run).sol
