"""Deterministic graph constructors for tests, benchmarks, and experiments.

Random regular graphs use the pairing model.  Their reproducibility rests
on three things: integer seeding of the stdlib Mersenne Twister, its
``getrandbits``, and the Fisher-Yates loop written in this module.  They
do not rest on ``random.shuffle``, whose draws lie outside Python's
reproducibility note (it promises only ``random()``); the loop here makes
the draws CPython 3.11's ``random.shuffle`` makes, so the graphs are the
ones it gave.  Every family here is reproducible from its arguments, and
``tests/test_generators.py`` pins a digest of a fixed sweep.
"""

from __future__ import annotations

import random

from .errors import InvalidSpec
from .multigraph import MultiGraph, from_edge_list, from_rows


def _require_sizes(*sizes: int) -> None:
    if min(sizes) < 0:
        raise InvalidSpec(f"sizes must be non-negative, got {', '.join(map(str, sizes))}")


def complete(k: int) -> MultiGraph:
    _require_sizes(k)
    return from_edge_list([(u, v) for u in range(k) for v in range(u + 1, k)], k)


def complete_bipartite(a: int, b: int) -> MultiGraph:
    _require_sizes(a, b)
    return from_edge_list([(u, v) for u in range(a) for v in range(a, a + b)], a + b)


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(v, (v + 1) % n) for v in range(n)]


def cycle(n: int) -> MultiGraph:
    if n < 3:
        raise InvalidSpec("cycle needs at least 3 vertices")
    return from_edge_list(_cycle_edges(n), n)


def path(n: int) -> MultiGraph:
    _require_sizes(n)
    return from_edge_list([(v, v + 1) for v in range(n - 1)], n)


def empty(n: int) -> MultiGraph:
    _require_sizes(n)
    return from_edge_list((), n)


def disjoint_copies(g: MultiGraph, t: int) -> MultiGraph:
    """t disjoint copies of g, copy i shifted by i * (max id + 1).

    Each copy lists its vertices in id order and each row its neighbours
    in id order, as adding the copy's sorted edges one by one would.
    """
    if t < 1:
        raise InvalidSpec("need at least one copy")
    stride = max(g.vertices(), default=-1) + 1
    adj = g.adjacency_map()
    rows = [(v, sorted(adj[v].items())) for v in sorted(adj)]
    return from_rows({v + off: {u + off: c for u, c in row}
                      for off in [i * stride for i in range(t)] for v, row in rows})


def _shuffle_steps(x: list[int], i: int, getrandbits) -> None:
    """Steps i, i - 1, ..., 1 of the Fisher-Yates shuffle of x.

    Step s swaps x[s] with x[j], j drawn uniform in 0..s the way
    ``random.shuffle`` draws it: ``getrandbits`` of the bit length of s + 1,
    drawn again while above s.  The bit length is fixed on each run of s
    between powers of two.
    """
    while i > 0:
        k = (i + 1).bit_length()
        low = max((1 << (k - 1)) - 1, 1)  # the least s with this bit length
        for i in range(i, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        i = low - 1


def _pairing(stubs: list[int], n: int, getrandbits) -> set[int] | None:
    """One attempt of the pairing model: shuffle ``stubs`` in place, exactly
    as ``_shuffle_steps`` does, and pair positions 2i and 2i + 1.

    Returns the pairs as keys u * n + v with u < v, or None when a pair is
    a loop or repeats an earlier one.  The steps run two at a time, odd s
    then s - 1, after which pair (s - 1, s) is final and is checked; after
    a bad pair the rest of the shuffle runs unchecked, since the next
    attempt starts from this order.
    """
    seen: set[int] = set()
    add = seen.add
    for i in range(len(stubs) - 1, 0, -2):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        stubs[i], stubs[j] = stubs[j], stubs[i]
        h = i - 1
        k = i.bit_length() if h else 0  # no step 0: getrandbits(0) draws nothing
        j = getrandbits(k)
        while j > h:
            j = getrandbits(k)
        u = stubs[j]
        stubs[j] = stubs[h]
        stubs[h] = u
        v = stubs[i]
        key = u * n + v if u < v else v * n + u
        if u == v or key in seen:
            _shuffle_steps(stubs, h - 1, getrandbits)
            return None
        add(key)
    return seen


def random_regular(n: int, d: int, seed: int) -> MultiGraph:
    """Random d-regular simple graph via the pairing model with rejection.

    Deterministic for a given (n, d, seed): rejected pairings re-draw from
    the same seeded stream, each attempt shuffling the order the last one
    left, with the draws ``random.shuffle`` makes.
    """
    if d < 0 or d >= n:
        raise InvalidSpec(f"need 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InvalidSpec("n * d must be even")
    getrandbits = random.Random(seed).getrandbits
    stubs = [v for v in range(n) for _ in range(d)]
    for _attempt in range(10_000):
        keys = _pairing(stubs, n, getrandbits)
        if keys is not None:
            return from_edge_list(sorted(divmod(key, n) for key in keys), n)
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
    jumps = pattern * (n // len(pattern))
    chords = [(v, (v + jump) % n) for v, jump in enumerate(jumps)]
    # A chord that repeats an edge collapses into it.
    return from_edge_list(_cycle_edges(n) + chords, n)


def petersen() -> MultiGraph:
    edges = []
    for v in range(5):
        edges += [(v, (v + 1) % 5), (v, v + 5), (5 + v, 5 + (v + 2) % 5)]
    return from_edge_list(edges, 10)


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
