import hashlib
import random

import pytest

from planarize import generators as gen
from planarize.errors import InvalidSpec
from planarize.graphio import write_graph_text
from planarize.multigraph import MultiGraph


def test_disjoint_copies_counts():
    g = gen.disjoint_copies(gen.complete_bipartite(3, 3), 3)
    assert (g.n, g.m) == (18, 27)
    assert len(g.components()) == 3


def test_cycle_and_path():
    assert (gen.cycle(5).n, gen.cycle(5).m) == (5, 5)
    assert (gen.path(4).n, gen.path(4).m) == (4, 3)


def test_random_regular_basic():
    g = gen.random_regular(20, 4, seed=7)
    assert g.is_d_regular(4)
    assert g.is_simple()
    assert g.m == 40


def test_random_regular_determinism():
    a = gen.random_regular(16, 3, seed=5)
    b = gen.random_regular(16, 3, seed=5)
    assert write_graph_text(a) == write_graph_text(b)
    c = gen.random_regular(16, 3, seed=6)
    assert write_graph_text(a) != write_graph_text(c)


def test_negative_sizes_rejected():
    for build in (lambda: gen.complete(-1), lambda: gen.empty(-1), lambda: gen.path(-2),
                  lambda: gen.complete_bipartite(-1, 3), lambda: gen.complete_bipartite(3, -1)):
        with pytest.raises(InvalidSpec, match="sizes must be non-negative"):
            build()
    assert (gen.complete(0).n, gen.empty(0).n, gen.path(0).n) == (0, 0, 0)
    assert gen.complete_bipartite(0, 3).n == 3


def test_random_regular_rejects_bad_specs():
    with pytest.raises(InvalidSpec):
        gen.random_regular(5, 3, seed=0)  # odd n*d
    with pytest.raises(InvalidSpec):
        gen.random_regular(4, 4, seed=0)  # d >= n


@pytest.mark.parametrize("n,d", [(10, 3), (20, 4), (30, 5)])
def test_random_regular_simple_and_regular_many_seeds(n, d):
    for seed in range(1000):
        g = gen.random_regular(n, d, seed)
        assert g.is_d_regular(d)
        assert g.is_simple()


def test_fixture_girths():
    assert gen.petersen().girth() == 5
    assert gen.heawood().girth() == 6
    assert gen.mcgee().girth() == 7
    assert gen.tutte_coxeter().girth() == 8


def test_fixture_shapes():
    assert (gen.petersen().n, gen.petersen().m) == (10, 15)
    assert (gen.heawood().n, gen.heawood().m) == (14, 21)
    assert (gen.mcgee().n, gen.mcgee().m) == (24, 36)
    assert (gen.tutte_coxeter().n, gen.tutte_coxeter().m) == (30, 45)
    for g in (gen.heawood(), gen.mcgee(), gen.tutte_coxeter()):
        assert g.is_d_regular(3)


def test_subdivide_scales_girth():
    assert gen.subdivide(gen.cycle(3), 1).girth() == 6
    assert gen.subdivide(gen.petersen(), 2).girth() == 15


def test_fixture_lookup():
    assert gen.fixture("mcgee").n == 24
    assert gen.fixture("Tutte-Coxeter").n == gen.fixture("tutte_coxeter").n == 30
    with pytest.raises(InvalidSpec, match="unknown fixture 'nope'"):
        gen.fixture("nope")


def test_girth11_cubic_filter_is_empty_at_small_n():
    # A cubic graph of girth 11 needs at least 94 vertices (Moore bound),
    # so rejection sampling at n <= 60 must find nothing.  This pins the
    # vacuity rather than silently skipping.
    found = []
    for n in (20, 40, 60):
        for seed in range(40):
            g = gen.random_regular(n, 3, seed)
            girth = g.girth()
            if girth is not None and girth >= 11:
                found.append((n, seed))
    assert found == []


# The pairing model and disjoint_copies as they were written before the
# generator shuffled with its own loop, kept verbatim as references: the
# new code must give the same graphs, row order included.


def _reference_random_regular(n: int, d: int, seed: int) -> MultiGraph:
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
            g = gen.empty(n)
            for u, v in sorted(edges):
                g.add_edge(u, v)
            return g
    raise InvalidSpec(f"pairing model failed for n={n}, d={d}, seed={seed}")


def _reference_disjoint_copies(g: MultiGraph, t: int) -> MultiGraph:
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


def _layout(build, *args):
    """The graph's rows and degrees in their stored order, or the InvalidSpec message."""
    try:
        g = build(*args)
    except InvalidSpec as exc:
        return str(exc)
    rows = [(v, list(row.items())) for v, row in g.adjacency_map().items()]
    return rows, list(g.degree_map().items()), g.m


def _reference_cases():
    # Seeds thin out with d: the reference's rejection loop costs about
    # 17 ms a graph at d = 5, so all 50 seeds there would take 11 s.
    for n in range(4, 31):
        for d in range(6):
            for seed in range(50 if d <= 3 else 10 if d == 4 else 2):
                yield n, d, seed
    for n in (8, 16, 24, 40, 60):  # the corpus shapes, at corpus-sized seeds
        for d in (2, 3, 4, 5):
            yield n, d, 3_141_592_653
    for n in (150, 300, 600, 1000, 2000, 4000):  # the rr4 ladder rungs
        yield n, 4, 11
    yield 8, 7, 0  # these two run out of attempts
    yield 7, 6, 0


def test_random_regular_matches_reference():
    outcomes = set()
    for n, d, seed in _reference_cases():
        want = _layout(_reference_random_regular, n, d, seed)
        assert _layout(gen.random_regular, n, d, seed) == want, (n, d, seed)
        outcomes.add(type(want))
    assert outcomes == {str, tuple}
    assert _layout(gen.random_regular, 8, 7, 0) == "pairing model failed for n=8, d=7, seed=0"


def test_disjoint_copies_matches_reference():
    multi = MultiGraph()
    for v in (0, 2, 5):
        multi.add_vertex(v)
    multi.add_edge(5, 0)
    multi.add_edge(2, 2)  # a loop
    multi.add_edge(0, 2, 2)  # a parallel pair
    for template in (gen.complete_bipartite(3, 3), gen.complete(5), multi, MultiGraph()):
        for t in (0, 1, 2, 5):
            assert (_layout(gen.disjoint_copies, template, t)
                    == _layout(_reference_disjoint_copies, template, t))


# sha256 of write_graph_text over the sweep below, taken from the graphs
# random.shuffle gave.  If a Python release changes random.shuffle, the
# reference test above moves but this digest must not.
SWEEP_SHA256 = "75d3eacbaae006d395b20d08145a788a368d12a283453366c4690af87171d9c7"


def test_random_regular_sweep_digest_is_pinned():
    h = hashlib.sha256()
    for n in range(4, 31):
        for d in range(6):
            if d < n and n * d % 2 == 0:
                for seed in range(3):
                    h.update(write_graph_text(gen.random_regular(n, d, seed)).encode())
    h.update(write_graph_text(gen.random_regular(4000, 4, 11)).encode())
    assert h.hexdigest() == SWEEP_SHA256
