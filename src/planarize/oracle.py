"""Brute-force ground truth on small graphs.

Maximum induced subgraphs by subset enumeration, exact treewidth by a
subset dynamic program over elimination orders, and an exhaustive
subdivision search that doubles as an independent planarity check.
Size caps keep runtimes sane; the PLANARIZE_ORACLE_CAP environment
variable overrides them, and a value that is not an integer is an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from . import certify
from .errors import GraphError, TooLarge
from .multigraph import MultiGraph

MAX_INDUCED_CAP = 16
TREEWIDTH_CAP = 10
KURATOWSKI_CAP = 12


def _cap(default: int) -> int:
    env = os.environ.get("PLANARIZE_ORACLE_CAP")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise GraphError(f"PLANARIZE_ORACLE_CAP must be an integer, got {env!r}") from exc
    return default


class PropertyId(Enum):
    INDEPENDENT_SET = "independent-set"
    MATCHING = "matching"
    LINEAR_FOREST = "linear-forest"
    FOREST = "forest"
    PSEUDOFOREST = "pseudoforest"
    TREEWIDTH2 = "treewidth2"
    OUTERPLANAR = "outerplanar"
    PLANAR = "planar"


def _is_forest(g: MultiGraph) -> bool:
    if not g.is_simple():
        return False
    return g.m == g.n - len(g.components())


def _is_linear_forest(g: MultiGraph) -> bool:
    return _is_forest(g) and g.max_degree() <= 2


def _is_outerplanar(g: MultiGraph) -> bool:
    h = g.copy()
    h.simplify()
    apex = max(h.vertices(), default=-1) + 1
    h.add_vertex(apex)
    for v in sorted(h.vertices()):
        if v != apex:
            h.add_edge(apex, v)
    return certify.is_planar(h)


PREDICATES = {
    PropertyId.INDEPENDENT_SET: lambda g: g.m == 0,
    PropertyId.MATCHING: lambda g: g.is_simple() and g.max_degree() <= 1,
    PropertyId.LINEAR_FOREST: _is_linear_forest,
    PropertyId.FOREST: _is_forest,
    PropertyId.PSEUDOFOREST: certify.is_pseudoforest,
    PropertyId.TREEWIDTH2: certify.is_partial_2_tree,
    PropertyId.OUTERPLANAR: _is_outerplanar,
    PropertyId.PLANAR: certify.is_planar,
}


def max_induced(g: MultiGraph, prop: PropertyId) -> tuple[int, set[int]]:
    """Exact maximum |S| with G[S] in the property class, plus the
    lexicographically smallest maximum witness."""
    cap = _cap(MAX_INDUCED_CAP)
    if g.n > cap:
        raise TooLarge(f"n={g.n} exceeds oracle cap {cap}")
    pred = PREDICATES[prop]
    verts = g.sorted_vertices()
    for size in range(g.n, -1, -1):
        for combo in combinations(verts, size):
            s = set(combo)
            if pred(certify.induced_subgraph(g, s)):
                return size, s
    return 0, set()


def exact_treewidth(g: MultiGraph) -> int:
    """Exact treewidth via dynamic programming over elimination prefixes."""
    cap = _cap(TREEWIDTH_CAP)
    if g.n > cap:
        raise TooLarge(f"n={g.n} exceeds treewidth cap {cap}")
    h = g.copy()
    h.simplify()
    verts = h.sorted_vertices()
    n = len(verts)
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [0] * n
    for u, v, _ in h.iter_edges():
        if u != v:
            nbrs[index[u]] |= 1 << index[v]
            nbrs[index[v]] |= 1 << index[u]

    def back_degree(mask: int, v: int) -> int:
        # Vertices outside mask+{v} adjacent to v directly or through mask.
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            x = stack.pop()
            cand = nbrs[x] & ~seen
            while cand:
                low = cand & -cand
                y = low.bit_length() - 1
                cand ^= low
                seen |= low
                if (mask >> y) & 1:
                    stack.append(y)
                else:
                    out |= low
        return bin(out).count("1")

    full = (1 << n) - 1
    best = {0: -1}
    for mask in range(1, full + 1):
        lo = None
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            prev = mask ^ low
            cand = max(best[prev], back_degree(prev, v))
            if lo is None or cand < lo:
                lo = cand
        best[mask] = lo
    return max(best[full], 0)


@dataclass(frozen=True)
class KuratowskiWitness:
    kind: str  # "K5" or "K33"
    branch: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]


def _disjoint_paths(
    adj: dict[int, list[int]],
    pairs: list[tuple[int, int]],
    branch: set[int],
    used: set[int],
    acc: list[tuple[int, ...]],
) -> list[tuple[int, ...]] | None:
    if not pairs:
        return list(acc)
    a, b = pairs[0]

    # Depth-first over simple a-b paths whose interior avoids branch
    # vertices and interiors of already-chosen paths.
    stack: list[tuple[int, tuple[int, ...]]] = [(a, (a,))]
    while stack:
        x, trail = stack.pop()
        for y in reversed(adj[x]):
            if y == b:
                interior = trail[1:]
                acc.append(trail + (b,))
                used.update(interior)
                res = _disjoint_paths(adj, pairs[1:], branch, used, acc)
                if res is not None:
                    return res
                used.difference_update(interior)
                acc.pop()
            elif y not in branch and y not in used and y not in trail:
                stack.append((y, trail + (y,)))
    return None


def find_kuratowski(g: MultiGraph) -> KuratowskiWitness | None:
    """A K5 or K33 subdivision if one exists, else None.

    Exhaustive over branch-vertex choices with backtracking over
    internally disjoint linking paths; None exactly when the graph is
    planar.
    """
    cap = _cap(KURATOWSKI_CAP)
    if g.n > cap:
        raise TooLarge(f"n={g.n} exceeds subdivision-search cap {cap}")
    h = g.copy()
    h.simplify()
    if h.m <= 8:
        return None
    adj = {v: h.neighbors(v) for v in h.sorted_vertices()}
    verts = h.sorted_vertices()

    deg4 = [v for v in verts if len(adj[v]) >= 4]
    for branch in combinations(deg4, 5):
        pairs = [(branch[i], branch[j]) for i in range(5) for j in range(i + 1, 5)]
        res = _disjoint_paths(adj, pairs, set(branch), set(), [])
        if res is not None:
            return KuratowskiWitness("K5", tuple(branch), tuple(res))

    deg3 = [v for v in verts if len(adj[v]) >= 3]
    for left in combinations(deg3, 3):
        rest = [v for v in deg3 if v not in left]
        for right in combinations(rest, 3):
            if left[0] > right[0]:
                continue  # unordered bipartition, avoid double work
            pairs = [(a, b) for a in left for b in right]
            res = _disjoint_paths(adj, pairs, set(left) | set(right), set(), [])
            if res is not None:
                return KuratowskiWitness("K33", tuple(left) + tuple(right), tuple(res))
    return None
