"""Mutable undirected multigraph with contraction, the substrate for all reducers.

Adjacency is multiplicity keyed: each vertex has a row, a plain ``dict``
in which ``adj[u][v]`` is the number of parallel u-v edges (a missing
key means none), and a self loop is stored once at ``adj[v][v]``.  A loop
contributes 2 to the degree of its vertex but only 1 to the edge count.
Vertex ids are the only names: they are stable for the lifetime of a
graph, never reused after deletion, and contraction keeps the survivor's
id, so a vertex of a mutated working copy is the input vertex of the same
id and a vertex set computed on it is already a set of input vertices.

Instances are single-owner: not safe for concurrent mutation, fine to
move between threads or to share read-only.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import GraphError, LoopInInput, NoSuchEdge, UnknownVertex


def _unknown(v: int) -> UnknownVertex:
    return UnknownVertex(f"vertex {v} not in graph")


class MultiGraph:
    __slots__ = ("_adj", "_deg", "_m")

    def __init__(self) -> None:
        self._adj: dict[int, dict[int, int]] = {}
        self._deg: dict[int, int] = {}
        self._m: int = 0

    # -- construction -------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v < 0:
            raise GraphError(f"vertex ids must be non-negative, got {v}")
        if v not in self._adj:
            self._adj[v] = {}
            self._deg[v] = 0

    def add_edge(self, u: int, v: int, count: int = 1) -> None:
        """Add ``count`` parallel u-v edges (or loops when u == v)."""
        if count <= 0:
            raise GraphError("edge count must be positive")
        self.add_vertex(u)
        self.add_vertex(v)
        row = self._adj[u]
        row[v] = row.get(v, 0) + count
        if u == v:
            self._deg[u] += 2 * count
        else:
            row = self._adj[v]
            row[u] = row.get(u, 0) + count
            self._deg[u] += count
            self._deg[v] += count
        self._m += count

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def sorted_vertices(self) -> list[int]:
        return sorted(self._adj)

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise _unknown(v)

    def degree(self, v: int) -> int:
        """Degree of v; a loop counts twice."""
        try:
            return self._deg[v]
        except KeyError:
            raise _unknown(v) from None

    def multiplicity(self, u: int, v: int) -> int:
        try:
            c = self._adj[u].get(v)
        except KeyError:
            raise _unknown(u) from None
        if c is None:
            self._require(v)
            return 0
        return c

    def loops(self, v: int) -> int:
        try:
            return self._adj[v].get(v, 0)
        except KeyError:
            raise _unknown(v) from None

    def neighbors(self, v: int) -> list[int]:
        """Distinct neighbors of v in increasing id order, excluding v itself."""
        try:
            row = self._adj[v]
        except KeyError:
            raise _unknown(v) from None
        nbrs = sorted(row)
        if v in row:
            nbrs.remove(v)
        return nbrs

    def degree_map(self) -> Mapping[int, int]:
        """Live read-only map from each vertex to its degree.  Unlike
        ``degree`` it does not check the vertex: for hot loops that visit
        only vertices known to be in the graph."""
        return MappingProxyType(self._deg)

    def adjacency_map(self) -> Mapping[int, Mapping[int, int]]:
        """Live map from each vertex to its neighbour multiplicities, as
        ``degree_map`` is to ``degree``; read it, never write it."""
        return MappingProxyType(self._adj)

    def incidences(self, v: int) -> list[tuple[int, int]]:
        """(neighbor, multiplicity) pairs for v, loops included, sorted by id."""
        try:
            return sorted(self._adj[v].items())
        except KeyError:
            raise _unknown(v) from None

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, multiplicity) with u <= v, sorted."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u <= v:
                    yield u, v, self._adj[u][v]

    def is_simple(self) -> bool:
        for u, adj in self._adj.items():
            for v, c in adj.items():
                if u == v or c > 1:
                    return False
        return True

    def max_degree(self) -> int:
        return max(self._deg.values(), default=0)

    # -- mutation -----------------------------------------------------

    def remove_edge(self, u: int, v: int, count: int = 1) -> None:
        if count <= 0:
            raise GraphError("edge count must be positive")
        self._require(u)
        self._require(v)
        have = self._adj[u].get(v, 0)
        if have < count:
            raise NoSuchEdge(f"cannot remove {count} copies of ({u},{v}); have {have}")
        if u == v:
            self._adj[u][u] -= count
            if self._adj[u][u] == 0:
                del self._adj[u][u]
            self._deg[u] -= 2 * count
        else:
            self._adj[u][v] -= count
            self._adj[v][u] -= count
            if self._adj[u][v] == 0:
                del self._adj[u][v]
                del self._adj[v][u]
            self._deg[u] -= count
            self._deg[v] -= count
        self._m -= count

    def delete_vertex(self, v: int) -> int:
        """Remove v and all incident edges; return removed edge units (loop = 1)."""
        adj, deg = self._adj, self._deg
        try:
            row = adj.pop(v)
        except KeyError:
            raise _unknown(v) from None
        removed = 0
        for u, c in row.items():
            removed += c
            if u != v:
                del adj[u][v]
                deg[u] -= c
        self._m -= removed
        del deg[v]
        return removed

    def contract_edge(self, u: int, v: int, survivor: int) -> None:
        """Contract one copy of edge (u, v) into ``survivor``.

        The non-survivor's other incident edges re-attach to the survivor;
        extra parallel (u, v) copies become loops at the survivor, and loops
        of the non-survivor move to the survivor.  Exactly one edge unit
        disappears.  The survivor keeps its own id.
        """
        adj, deg = self._adj, self._deg
        if u not in adj:
            raise _unknown(u)
        if v not in adj:
            raise _unknown(v)
        if u == v:
            raise NoSuchEdge("cannot contract a loop")
        if survivor not in (u, v):
            raise GraphError(f"survivor {survivor} must be one of ({u}, {v})")
        mult = adj[u].get(v, 0)
        if mult == 0:
            raise NoSuchEdge(f"no edge ({u},{v}) to contract")
        gone = u if survivor == v else v

        keep = adj[survivor]
        # Detach the (u, v) bundle first: one copy vanishes, the rest loop.
        del keep[gone]
        row = adj.pop(gone)
        del row[survivor]
        deg[survivor] -= mult
        self._m -= 1
        extra = mult - 1
        if extra:
            keep[survivor] = keep.get(survivor, 0) + extra
            deg[survivor] += 2 * extra

        # Re-attach everything else incident to the vanishing vertex.
        for w, c in row.items():
            if w == gone:
                keep[survivor] = keep.get(survivor, 0) + c
                deg[survivor] += 2 * c
            else:
                other = adj[w]
                del other[gone]
                other[survivor] = other.get(survivor, 0) + c
                keep[w] = keep.get(w, 0) + c
                deg[survivor] += c
        del deg[gone]

    def simplify(self) -> int:
        """Remove all loops and surplus parallel copies; return removed units."""
        return sum(self.simplify_at(v) for v in list(self._adj))

    def simplify_at(self, v: int) -> int:
        """Remove loops at v and surplus copies on v's incident pairs.

        After contracting into v this is a full simplification, since
        contraction can only create multiplicities at the survivor.  The
        rows are rewritten in place, so every row keeps its order.
        """
        adj, deg = self._adj, self._deg
        try:
            row = adj[v]
        except KeyError:
            raise _unknown(v) from None
        loops = row.pop(v, 0)
        surplus = 0
        for u, c in row.items():
            if c > 1:
                c -= 1
                row[u] = adj[u][v] = 1
                deg[u] -= c
                surplus += c
        deg[v] -= 2 * loops + surplus
        self._m -= loops + surplus
        return loops + surplus

    # -- structure ----------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest id."""
        seen: set[int] = set()
        comps: list[list[int]] = []
        for start in sorted(self._adj):
            if start in seen:
                continue
            comp = []
            queue = deque([start])
            seen.add(start)
            while queue:
                x = queue.popleft()
                comp.append(x)
                for y in self._adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            comps.append(sorted(comp))
        return comps

    def component_of(self, v: int) -> list[int]:
        self._require(v)
        seen = {v}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in self._adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return sorted(seen)

    def is_d_regular(self, d: int) -> bool:
        return all(deg == d for deg in self._deg.values())

    def girth(self) -> int | None:
        """Length of the shortest cycle, or None if the graph is acyclic.

        A loop is a cycle of length 1 and a parallel pair a cycle of
        length 2; otherwise a breadth-first search from every vertex finds
        the exact girth of the underlying simple graph.
        """
        best: int | None = None
        for v, adj in self._adj.items():
            if adj.get(v, 0):
                return 1
            for u, c in adj.items():
                if u != v and c > 1:
                    best = 2
        if best == 2:
            return 2
        for source in self._adj:
            dist = {source: 0}
            parent = {source: -1}
            queue = deque([source])
            while queue:
                x = queue.popleft()
                if best is not None and 2 * dist[x] >= best:
                    break
                for y in self._adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        queue.append(y)
                    elif y != parent[x]:
                        cycle = dist[x] + dist[y] + 1
                        if best is None or cycle < best:
                            best = cycle
            if best == 3:
                return 3
        return best

    # -- bookkeeping --------------------------------------------------

    def copy(self) -> "MultiGraph":
        g = MultiGraph()
        g._adj = dict(zip(self._adj, map(dict.copy, self._adj.values())))
        g._deg = dict(self._deg)
        g._m = self._m
        return g

    def check_invariants(self) -> None:
        """Debug audit: symmetry, degree and edge-count consistency."""
        total = 0
        for v, adj in self._adj.items():
            deg = 0
            for u, c in adj.items():
                if c <= 0:
                    raise GraphError(f"non-positive multiplicity at ({v},{u})")
                if u == v:
                    deg += 2 * c
                    total += 2 * c
                else:
                    deg += c
                    total += c
                    if self._adj.get(u, {}).get(v, 0) != c:
                        raise GraphError(f"asymmetric adjacency at ({v},{u})")
            if deg != self._deg[v]:
                raise GraphError(f"cached degree wrong at {v}")
        if total != 2 * self._m:
            raise GraphError("edge count inconsistent with degrees")

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiGraph(n={self.n}, m={self.m})"


def from_rows(rows: dict[int, dict[int, int]]) -> MultiGraph:
    """Build a graph in bulk from its adjacency rows, taken over as they are.

    ``rows`` maps each vertex (a non-negative id) to its row, neighbour to
    positive multiplicity, a loop stored once under the vertex itself,
    and must be symmetric.  Vertices and rows keep the order they have in
    ``rows``; degrees and the edge count are filled in one pass.
    """
    g = MultiGraph()
    g._adj = rows
    deg = g._deg = {}
    ends = 0
    for v, row in rows.items():
        d = deg[v] = sum(row.values()) + row.get(v, 0)
        ends += d
    g._m = ends // 2
    return g


def from_edge_list(edges: Iterable[tuple[int, int]], n_hint: int = 0) -> MultiGraph:
    """Build a simple graph from integer pairs; duplicates collapse.

    Raises LoopInInput on a u == u pair.  ``n_hint`` forces at least that
    many vertices (labels 0..n_hint-1) so isolated vertices survive.  The
    vertices are 0..n_hint-1 and then the other labels in order of first
    appearance, and each row lists its neighbours in edge order.
    """
    rows: dict[int, dict[int, int]] = {v: {} for v in range(n_hint)}
    new = rows.setdefault
    for u, v in edges:
        if u == v:
            raise LoopInInput(f"self loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex label in edge ({u},{v})")
        row = new(u, {})
        if v not in row:
            row[v] = 1
            new(v, {})[u] = 1
    return from_rows(rows)
