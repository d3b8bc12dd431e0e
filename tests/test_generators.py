import pytest

from planarize import generators as gen
from planarize.errors import InvalidSpec
from planarize.graphio import write_graph_text


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
