import random

import pytest

from planarize import generators as gen, oracle
from planarize.errors import GraphError, TooLarge
from planarize.multigraph import from_edge_list
from planarize.oracle import PropertyId


def test_max_induced_paper_values():
    assert oracle.max_induced(gen.complete_bipartite(3, 3), PropertyId.PSEUDOFOREST)[0] == 4
    assert oracle.max_induced(gen.complete(5), PropertyId.TREEWIDTH2)[0] == 3
    assert oracle.max_induced(gen.cycle(4), PropertyId.FOREST)[0] == 3
    assert oracle.max_induced(gen.complete(6), PropertyId.PLANAR)[0] == 4


def test_max_induced_witness_is_lexicographically_least():
    size, witness = oracle.max_induced(gen.complete(5), PropertyId.TREEWIDTH2)
    assert size == 3 and witness == {0, 1, 2}


def test_max_induced_cap():
    with pytest.raises(TooLarge):
        oracle.max_induced(gen.empty(40), PropertyId.FOREST)


def test_max_induced_trivial_properties():
    path2 = gen.path(3)
    assert oracle.max_induced(path2, PropertyId.INDEPENDENT_SET)[0] == 2
    assert oracle.max_induced(path2, PropertyId.MATCHING)[0] == 2
    tri = gen.cycle(3)
    assert oracle.max_induced(tri, PropertyId.MATCHING)[0] == 2
    assert oracle.max_induced(tri, PropertyId.LINEAR_FOREST)[0] == 2


def test_containment_chain():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(3, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = from_edge_list(edges, n)
        sizes = {
            p: oracle.max_induced(g, p)[0]
            for p in (
                PropertyId.FOREST,
                PropertyId.PSEUDOFOREST,
                PropertyId.TREEWIDTH2,
                PropertyId.PLANAR,
            )
        }
        assert (
            sizes[PropertyId.PLANAR]
            >= sizes[PropertyId.TREEWIDTH2]
            >= sizes[PropertyId.PSEUDOFOREST]
            >= sizes[PropertyId.FOREST]
        )


def test_monotone_under_edge_addition():
    rng = random.Random(23)
    for _ in range(15):
        n = 7
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
        g = from_edge_list(sorted(edges), n)
        non_edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
        ]
        if not non_edges:
            continue
        extra = rng.choice(non_edges)
        bigger = from_edge_list(sorted(edges | {extra}), n)
        for p in (PropertyId.PSEUDOFOREST, PropertyId.PLANAR):
            assert oracle.max_induced(bigger, p)[0] <= oracle.max_induced(g, p)[0]


def test_exact_treewidth_cliques():
    for k in range(2, 7):
        assert oracle.exact_treewidth(gen.complete(k)) == k - 1


def test_exact_treewidth_values():
    assert oracle.exact_treewidth(gen.cycle(5)) == 2
    assert oracle.exact_treewidth(gen.complete_bipartite(3, 3)) == 3
    assert oracle.exact_treewidth(gen.path(6)) == 1
    assert oracle.exact_treewidth(gen.empty(3)) == 0
    assert oracle.exact_treewidth(gen.petersen()) == 4


def test_exact_treewidth_cap():
    with pytest.raises(TooLarge):
        oracle.exact_treewidth(gen.empty(11))


def _validate_witness(g, w):
    if w.kind == "K5":
        branch = w.branch
        pairs = [(branch[i], branch[j]) for i in range(5) for j in range(i + 1, 5)]
    else:
        left, right = w.branch[:3], w.branch[3:]
        pairs = [(a, b) for a in left for b in right]
    assert len(w.paths) == len(pairs)
    interiors: set[int] = set()
    for (a, b), path in zip(pairs, w.paths):
        assert path[0] == a and path[-1] == b
        for x, y in zip(path, path[1:]):
            assert g.multiplicity(x, y) >= 1
        inner = set(path[1:-1])
        assert not inner & set(w.branch)
        assert not inner & interiors
        interiors |= inner


def test_kuratowski_k5_and_trees():
    w = oracle.find_kuratowski(gen.complete(5))
    assert w is not None and w.kind == "K5"
    _validate_witness(gen.complete(5), w)
    assert oracle.find_kuratowski(gen.path(8)) is None


def test_kuratowski_petersen():
    g = gen.petersen()
    w = oracle.find_kuratowski(g)
    assert w is not None and w.kind == "K33"
    _validate_witness(g, w)


def test_outerplanar_uses_apex():
    assert oracle.max_induced(gen.complete(4), PropertyId.OUTERPLANAR)[0] == 3
    assert oracle.max_induced(gen.cycle(6), PropertyId.OUTERPLANAR)[0] == 6


def test_oracle_cap_env_override(monkeypatch):
    monkeypatch.setenv("PLANARIZE_ORACLE_CAP", "4")
    with pytest.raises(TooLarge):
        oracle.max_induced(gen.complete(5), PropertyId.PLANAR)
    monkeypatch.setenv("PLANARIZE_ORACLE_CAP", "12")
    assert oracle.exact_treewidth(gen.complete_bipartite(3, 3)) == 3


def test_oracle_cap_env_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("PLANARIZE_ORACLE_CAP", "lots")
    with pytest.raises(GraphError, match="PLANARIZE_ORACLE_CAP"):
        oracle.max_induced(gen.complete(4), PropertyId.PLANAR)
