import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planarize import certify, generators as gen, oracle
from planarize.errors import UnknownVertex
from planarize.multigraph import MultiGraph, from_edge_list


def _random_graph(seed, n_max=9, p_choices=(0.2, 0.35, 0.5, 0.7)):
    rng = random.Random(seed)
    n = rng.randrange(1, n_max + 1)
    p = rng.choice(p_choices)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(edges, n)


def test_induced_subgraph_examples():
    tri = certify.induced_subgraph(gen.complete(5), {0, 1, 2})
    assert (tri.n, tri.m) == (3, 3)
    side = certify.induced_subgraph(gen.complete_bipartite(3, 3), {0, 1, 2})
    assert (side.n, side.m) == (3, 0)
    empty = certify.induced_subgraph(gen.complete(4), set())
    assert (empty.n, empty.m) == (0, 0)
    with pytest.raises(UnknownVertex):
        certify.induced_subgraph(gen.complete(3), {7})


def test_is_pseudoforest():
    assert certify.is_pseudoforest(gen.cycle(3))
    assert not certify.is_pseudoforest(gen.complete_bipartite(2, 3))
    two_unicyclic = from_edge_list([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert certify.is_pseudoforest(two_unicyclic)
    loop = MultiGraph()
    loop.add_edge(0, 0)
    assert certify.is_pseudoforest(loop)
    loop.add_edge(0, 1, 2)
    assert not certify.is_pseudoforest(loop)


def test_is_partial_2_tree():
    assert not certify.is_partial_2_tree(gen.complete(4))
    assert certify.is_partial_2_tree(gen.complete_bipartite(2, 3))
    assert certify.is_partial_2_tree(gen.path(7))
    assert certify.is_partial_2_tree(gen.empty(3))
    assert not certify.is_partial_2_tree(gen.complete_bipartite(3, 3))


def test_accepts_planar_residue():
    assert certify.accepts_planar_residue(gen.complete(4))
    assert certify.accepts_planar_residue(gen.cycle(9))
    assert certify.accepts_planar_residue(gen.path(5))
    dipole = MultiGraph()
    dipole.add_edge(0, 1, 3)
    assert certify.accepts_planar_residue(dipole)
    bowtie = from_edge_list([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert certify.accepts_planar_residue(bowtie)
    assert not certify.accepts_planar_residue(gen.complete(5))
    assert not certify.accepts_planar_residue(gen.complete_bipartite(3, 3))
    assert not certify.accepts_planar_residue(gen.petersen())


def test_accepted_residues_are_planar_treewidth_3():
    rng = random.Random(5)
    seen = 0
    for trial in range(300):
        g = _random_graph(rng.randrange(10 ** 6), n_max=8)
        if certify.accepts_planar_residue(g):
            seen += 1
            assert certify.is_planar(g)
            assert oracle.exact_treewidth(g) <= 3
    assert seen > 30


def test_is_planar():
    assert not certify.is_planar(gen.complete(5))
    k33_minus = gen.complete_bipartite(3, 3)
    k33_minus.remove_edge(0, 3)
    assert certify.is_planar(k33_minus)
    assert not certify.is_planar(gen.petersen())
    assert certify.is_planar(gen.complete(4))


def test_planarity_ignores_multiplicity():
    g = gen.complete(4)
    g.add_edge(0, 1, 2)
    g.add_edge(2, 2)
    assert certify.is_planar(g)


def test_containment_chain_on_randoms():
    for seed in range(150):
        g = _random_graph(seed)
        if certify.is_pseudoforest(g):
            assert certify.is_partial_2_tree(g)
        if certify.is_partial_2_tree(g):
            assert certify.is_planar(g)


def test_partial_2_tree_agrees_with_exact_treewidth():
    # Exhaustive on up to 5 vertices, sampled beyond.
    from itertools import combinations

    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = from_edge_list(edges, n)
            assert certify.is_partial_2_tree(g) == (oracle.exact_treewidth(g) <= 2)
    for seed in range(300):
        g = _random_graph(seed, n_max=8)
        assert certify.is_partial_2_tree(g) == (oracle.exact_treewidth(g) <= 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_sp_reduction_is_confluent(seed, perm_seed):
    # Relabelling the vertices changes the order the worklist takes them
    # in, but not the verdicts.
    g = _random_graph(seed, n_max=8)
    perm = list(range(g.n))
    random.Random(perm_seed).shuffle(perm)
    h = from_edge_list([(perm[u], perm[v]) for u, v, _ in g.iter_edges()], g.n)
    assert certify.is_partial_2_tree(h) == certify.is_partial_2_tree(g)
    assert certify.accepts_planar_residue(h) == certify.accepts_planar_residue(g)


def test_is_planar_agrees_with_kuratowski_search():
    for seed in range(120):
        g = _random_graph(seed, n_max=9, p_choices=(0.3, 0.5, 0.8))
        witness = oracle.find_kuratowski(g)
        assert (witness is None) == certify.is_planar(g), f"seed {seed}"
    rng = random.Random(99)
    for trial in range(25):
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.4]
        g = from_edge_list(edges, 10)
        assert (oracle.find_kuratowski(g) is None) == certify.is_planar(g)


def test_networkx_loads_only_for_the_planarity_test():
    # The CLI, tw2 and pseudoforest with their certificates never call
    # is_planar, so a process that runs only them never imports networkx.
    script = """
import sys
import planarize.cli
from planarize import generators as gen
from planarize.reducers import checked_run
g = gen.random_regular(60, 4, 3)
for alg in ("tw2", "pseudoforest"):
    run = checked_run(g, alg)
    assert run.replayed and all(run.certificates.values()), alg
assert "networkx" not in sys.modules
"""
    src = str(Path(certify.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
