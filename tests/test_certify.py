import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from planarize import certify, cli, generators as gen, graphio, oracle
from planarize.errors import CertificateFailure, UnknownVertex
from planarize.multigraph import MultiGraph, from_edge_list
from planarize.planar import reduce_planar
from planarize.reducers import REDUCERS, checked_run
from test_planar_dispatch import _corpus_recipe
from test_reference_engines import _random_multigraph


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
    # The CLI and all three reducers with their certificates never reach
    # the left-right test: tw2 and pseudoforest never call is_planar, and
    # every planar output's residue accepts, so its witness answers.  Only
    # a graph whose residue does not accept, such as K5 handed to
    # `planarize certify`, loads networkx.
    script = """
import io, json, os, sys, tempfile
from contextlib import redirect_stdout
import planarize.cli
from planarize import generators as gen, graphio
from planarize.reducers import checked_run
g = gen.random_regular(60, 4, 3)
for alg in ("tw2", "pseudoforest", "planar"):
    run = checked_run(g, alg)
    assert run.replayed and all(run.certificates.values()), alg
run = checked_run(gen.disjoint_copies(gen.complete(5), 3), "planar")
assert run.replayed and all(run.certificates.values()), "K5 x 3"
assert "networkx" not in sys.modules
fd, path = tempfile.mkstemp(suffix=".txt")
with os.fdopen(fd, "w") as fh:
    fh.write(graphio.write_graph_text(gen.complete(5)))
out = io.StringIO()
with redirect_stdout(out):
    code = planarize.cli.main(["certify", "-i", path])
os.unlink(path)
assert code == 0 and json.loads(out.getvalue())["planar"] is False
assert "networkx" in sys.modules
"""
    src = str(Path(certify.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _nx_planar(g: MultiGraph) -> bool:
    gx = nx.Graph()
    gx.add_nodes_from(g.vertices())
    gx.add_edges_from((u, v) for u, v, _ in g.iter_edges() if u != v)
    return nx.check_planarity(gx)[0]


def _agreement_graphs():
    """The atlas, the seeded multigraphs of test_reference_engines, and
    every planar output of the corpus recipe at seed 0."""
    for gx in nx.graph_atlas_g():
        yield from_edge_list(list(gx.edges()), gx.number_of_nodes())
    rng = random.Random(2014)
    for _ in range(1500):
        yield _random_multigraph(rng)
    for _, g in _corpus_recipe():
        yield certify.induced_subgraph(g, reduce_planar(g)[0].s)


def test_is_planar_agrees_with_networkx_and_every_witness_checks():
    graphs = witnesses = 0
    for g in _agreement_graphs():
        graphs += 1
        assert certify.is_planar(g) == _nx_planar(g)
        rotation = certify.rotation_system(g)
        assert (rotation is not None) == certify.accepts_planar_residue(g)
        assert certify.planar_verdicts(g) == (certify.is_planar(g), rotation is not None)
        if rotation is not None:
            witnesses += 1
            assert certify.is_embedding(g, rotation)
    assert graphs == 1253 + 1500 + 400 and witnesses > 1500


def test_checker_rejects_every_non_planar_graph_under_any_witness():
    # A rotation system of K5, K33 or Petersen has genus > 0, whatever the
    # order at each vertex; try the sorted one and seeded shuffles.
    rng = random.Random(3)
    for g in (gen.complete(5), gen.complete_bipartite(3, 3), gen.petersen()):
        rotation = {v: sorted(g.neighbors(v)) for v in g.vertices()}
        for _ in range(50):
            assert not certify.is_embedding(g, rotation)
            for order in rotation.values():
                rng.shuffle(order)


def _mutants(g: MultiGraph, rotation: dict[int, list[int]]):
    """The checker mutants: (name, mutated rotation) pairs."""
    v = max(rotation, key=lambda u: len(rotation[u]))
    order = rotation[v]
    outside = max(rotation) + 1
    for name, cyc in (("dropped", order[1:]), ("repeated", order + order[:1]),
                      ("outside", order[:-1] + [outside])):
        yield name, {**rotation, v: cyc}
    yield "no rotation", {u: r for u, r in rotation.items() if u != v}
    # A residue vertex with three neighbours in g: its rotation holds one
    # direction along each of the three paths of a subdivided K4, which
    # embeds in the plane only as itself or its mirror, so one swap there
    # leaves no planar embedding.  (A swap at a cut vertex can.)
    rows = certify._reduce(g.adjacency_map(), g.vertices())[0]
    for u in rows:
        if len(rotation[u]) == 3:
            a, b, c = rotation[u]
            yield "core swap", {**rotation, u: [b, a, c]}
            break


def test_checker_rejects_mutated_witnesses():
    killed = {}
    for g in _agreement_graphs():
        rotation = certify.rotation_system(g)
        if rotation is None or not any(rotation.values()):
            continue
        for name, mutant in _mutants(g, rotation):
            assert not certify.is_embedding(g, mutant), name
            killed[name] = killed.get(name, 0) + 1
    assert set(killed) == {"dropped", "repeated", "outside", "no rotation", "core swap"}
    assert killed["core swap"] > 100


def _reverse_first(rotation):
    v = min(rotation)
    return {**rotation, v: rotation[v][::-1]}


def test_rejected_witness_fails_loudly(monkeypatch, tmp_path, capsys):
    # K5 x 3 leaves three K4s, so reversing one vertex's order is a swap
    # in a K4 core.
    g = gen.disjoint_copies(gen.complete(5), 3)
    real = certify.rotation_system
    monkeypatch.setattr(certify, "rotation_system",
                        lambda h, residue=None: _reverse_first(real(h, residue)))
    with pytest.raises(CertificateFailure, match="V=12 E=18 F=10 C=3"):
        checked_run(g, "planar")
    path = tmp_path / "k5x3.txt"
    path.write_text(graphio.write_graph_text(g))
    code = cli.main(["reduce", "--alg", "planar", "-i", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("assertion failure: planar witness rejected: V=12 E=18")
    assert "Traceback" not in err


def test_a_checked_planar_run_reads_the_residue_once(monkeypatch):
    # Both planar verdicts come from one ``_reduce`` pass over G[S]; the
    # witness is built from that pass's residue and log.
    g = gen.random_regular(60, 4, 1)
    sub = certify.induced_subgraph(g, reduce_planar(g)[0].s)
    assert sub.n > 4 and sub.m > 8  # past is_planar's small-graph shortcut
    real, passes = certify._reduce, []

    def counted(adj, work):
        passes.append(1)
        return real(adj, work)

    monkeypatch.setattr(certify, "_reduce", counted)
    assert REDUCERS["planar"][1](sub) == {"planar": True, "structure": True}
    assert len(passes) == 1
    passes.clear()
    assert certify.is_planar(sub) and certify.accepts_planar_residue(sub)
    assert len(passes) == 2
