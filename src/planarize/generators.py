"""Deterministic graph constructors for tests, benchmarks, and experiments.

Random regular graphs use the pairing model seeded through the stdlib
Mersenne Twister, whose state transition is stable across platforms and
Python releases, so every family here is reproducible from its arguments.
"""

from __future__ import annotations

import random

from .errors import InvalidSpec
from .multigraph import MultiGraph


def _require_sizes(*sizes: int) -> None:
    if min(sizes) < 0:
        raise InvalidSpec(f"sizes must be non-negative, got {', '.join(map(str, sizes))}")


def complete(k: int) -> MultiGraph:
    _require_sizes(k)
    g = MultiGraph()
    for v in range(k):
        g.add_vertex(v)
    for u in range(k):
        for v in range(u + 1, k):
            g.add_edge(u, v)
    return g


def complete_bipartite(a: int, b: int) -> MultiGraph:
    _require_sizes(a, b)
    g = MultiGraph()
    for v in range(a + b):
        g.add_vertex(v)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g


def cycle(n: int) -> MultiGraph:
    if n < 3:
        raise InvalidSpec("cycle needs at least 3 vertices")
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(n):
        g.add_edge(v, (v + 1) % n)
    return g


def path(n: int) -> MultiGraph:
    _require_sizes(n)
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def empty(n: int) -> MultiGraph:
    _require_sizes(n)
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
    return g


def disjoint_copies(g: MultiGraph, t: int) -> MultiGraph:
    """t disjoint copies of g, copy i shifted by i * (max id + 1)."""
    if t < 1:
        raise InvalidSpec("need at least one copy")
    stride = max(g.vertices(), default=-1) + 1
    out = MultiGraph()
    for i in range(t):
        off = i * stride
        for v in sorted(g.vertices()):
            out.add_vertex(v + off)
        for u, v, c in g.iter_edges():
            out.add_edge(u + off, v + off, c)
    return out


def random_regular(n: int, d: int, seed: int) -> MultiGraph:
    """Random d-regular simple graph via the pairing model with rejection.

    Deterministic for a given (n, d, seed): rejected pairings re-draw from
    the same seeded stream.
    """
    if d < 0 or d >= n:
        raise InvalidSpec(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InvalidSpec("n * d must be even")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _attempt in range(10_000):
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            g = empty(n)
            for u, v in sorted(edges):
                g.add_edge(u, v)
            return g
    raise InvalidSpec(f"pairing model failed for n={n}, d={d}, seed={seed}")


def subdivide(g: MultiGraph, k: int) -> MultiGraph:
    """Replace every edge by a path with k internal vertices (girth scales by k+1)."""
    if k < 0:
        raise InvalidSpec("k must be non-negative")
    out = MultiGraph()
    for v in sorted(g.vertices()):
        out.add_vertex(v)
    nxt = max(g.vertices(), default=-1) + 1
    for u, v, c in g.iter_edges():
        if u == v or c != 1:
            raise InvalidSpec("subdivide expects a simple graph")
        prev = u
        for _ in range(k):
            out.add_vertex(nxt)
            out.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        out.add_edge(prev, v)
    return out


def _lcf(n: int, pattern: list[int]) -> MultiGraph:
    """Hamiltonian cycle on n vertices plus chords given in LCF notation."""
    if n % len(pattern) != 0:
        raise InvalidSpec("LCF pattern length must divide n")
    g = cycle(n)
    jumps = pattern * (n // len(pattern))
    for v, jump in enumerate(jumps):
        u = (v + jump) % n
        if g.multiplicity(v, u) == 0:
            g.add_edge(v, u)
    return g


def petersen() -> MultiGraph:
    g = empty(10)
    for v in range(5):
        g.add_edge(v, (v + 1) % 5)
        g.add_edge(v, v + 5)
        g.add_edge(5 + v, 5 + (v + 2) % 5)
    return g


def heawood() -> MultiGraph:
    return _lcf(14, [5, -5])


def mcgee() -> MultiGraph:
    return _lcf(24, [12, 7, -7])


def tutte_coxeter() -> MultiGraph:
    return _lcf(30, [-13, -9, 7, -7, 9, 13])


FIXTURES = {
    "petersen": petersen,
    "heawood": heawood,
    "mcgee": mcgee,
    "tuttecoxeter": tutte_coxeter,
    "k33": lambda: complete_bipartite(3, 3),
    "k4": lambda: complete(4),
    "k5": lambda: complete(5),
    "c4": lambda: cycle(4),
}


def fixture(name: str) -> MultiGraph:
    """The named fixture; case, '-' and '_' in the name are ignored."""
    key = name.lower().replace("-", "").replace("_", "")
    if key not in FIXTURES:
        raise InvalidSpec(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return FIXTURES[key]()
