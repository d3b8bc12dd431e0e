"""Differential tests of the rewriting engine and the incremental replay.

The functions prefixed ``ref_`` are the earlier implementations, kept
verbatim as references: two rescanning copies of the delete / smooth /
merge loop (each restarts from vertex 0 or rebuilds its move list after
every rewrite), and a replay that simplifies the whole graph at every
simplifying step.  ``certify._reduce`` and ``solution.replay`` must give
the same verdicts; the reference replay's edge-unit and deletion counts
must equal the solution's.
"""

import random

import networkx as nx
import pytest

from planarize import certify
from planarize.errors import NoSuchEdge, TraceMismatch, UnknownVertex
from planarize.multigraph import MultiGraph
from planarize.reducers import REDUCERS
from planarize.solution import ReductionSolution, TraceStep, replay
from test_planar_dispatch import _corpus_recipe


def ref_induced_subgraph(g: MultiGraph, s: set[int]) -> MultiGraph:
    """Exact induced subgraph G[S]."""
    out = MultiGraph()
    for v in sorted(s):
        if not g.has_vertex(v):
            raise UnknownVertex(f"vertex {v} not in graph")
        out.add_vertex(v)
    for u, v, c in g.iter_edges():
        if u in s and v in s:
            out.add_edge(u, v, c)
    return out


def ref_sp_reduce(g: MultiGraph, order_seed: int | None = None) -> MultiGraph:
    """Exhaustively apply loop deletion, parallel merging, degree-<=1
    deletion, and degree-2 smoothing; returns the irreducible residue.

    The rewriting is confluent; ``order_seed`` shuffles rule application
    order so tests can check that the verdict does not depend on it.
    """
    h = g.copy()
    rng = random.Random(order_seed) if order_seed is not None else None
    changed = True
    while changed:
        changed = False
        moves: list[tuple[str, int]] = []
        for v in h.sorted_vertices():
            if h.loops(v):
                moves.append(("loop", v))
        for u, v, c in h.iter_edges():
            if u != v and c > 1:
                moves.append(("par", u))
        for v in h.sorted_vertices():
            deg = h.degree(v)
            if deg <= 1:
                moves.append(("del", v))
            elif deg == 2 and not h.loops(v):
                moves.append(("smooth", v))
        if not moves:
            break
        if rng is not None:
            move = moves[rng.randrange(len(moves))]
        else:
            move = moves[0]
        kind, v = move
        if kind == "loop":
            h.remove_edge(v, v, h.loops(v))
        elif kind == "par":
            for u, c in list(h.incidences(v)):
                if u != v and c > 1:
                    h.remove_edge(v, u, c - 1)
                    break
        elif kind == "del":
            h.delete_vertex(v)
        else:
            ref_smooth(h, v)
        changed = True
    return h


def ref_smooth(h: MultiGraph, v: int) -> None:
    """Replace a degree-2, loop-free vertex by an edge between its
    neighbors (a parallel edge or a loop when they coincide)."""
    inc = [(u, c) for u, c in h.incidences(v) if u != v]
    ends: list[int] = []
    for u, c in inc:
        ends.extend([u] * c)
    assert len(ends) == 2
    a, b = ends
    h.delete_vertex(v)
    h.add_edge(a, b)


def ref_accepts_planar_residue(g: MultiGraph) -> bool:
    """Structural certificate for planar-reducer outputs.

    Reduces each component by deleting degree-<=1 vertices, smoothing
    loop-free degree-2 vertices, removing loop edges (a completed cycle
    glued at a cut vertex), and merging parallel bundles down to a
    single edge (cycles glued along a pair of attachment points, the
    dipole included).  Accepts iff every component empties or ends as K4.

    Every accepted graph is planar with treewidth at most 3: undoing the
    rules only subdivides edges, duplicates edges, or attaches pendant
    vertices and cycles, all of which preserve planarity and never push
    treewidth past the K4 core's 3.
    """
    h = g.copy()
    changed = True
    while changed:
        changed = False
        for v in h.sorted_vertices():
            if h.degree(v) <= 1:
                h.delete_vertex(v)
                changed = True
                break
            if h.loops(v):
                h.remove_edge(v, v, 1)
                changed = True
                break
            if h.degree(v) == 2:
                ref_smooth(h, v)
                changed = True
                break
        if changed:
            continue
        for u, v, c in h.iter_edges():
            if u != v and c >= 2:
                h.remove_edge(u, v, c - 1)
                changed = True
                break
    if h.n == 0:
        return True
    for comp in h.components():
        sub = ref_induced_subgraph(h, set(comp))
        if sub.n == 4 and sub.m == 6 and sub.is_simple():
            continue
        return False
    return True


def ref_replay(g: MultiGraph, sol: ReductionSolution) -> tuple[int, int]:
    """Re-execute a trace on a copy of g, verifying every recorded step;
    return the edge units consumed and the vertices deleted.

    Raises TraceMismatch if the trace does not apply cleanly, if any
    step's recorded edge-unit count disagrees with the replayed one, or
    if the rebuilt output set differs from the recorded one.
    """
    work = g.copy()
    s: set[int] = set()
    total_units = 0
    deletions = 0
    for idx, step in enumerate(sol.trace):
        units = 0
        try:
            for v in step.deleted:
                units += work.delete_vertex(v)
                deletions += 1
            for u, v, survivor in step.contracted:
                orig = u if survivor == v else v
                work.contract_edge(u, v, survivor)
                if orig not in step.s_added:
                    raise TraceMismatch(
                        f"step {idx}: contracted-away original {orig} missing from s_added"
                    )
                s.add(orig)
                units += 1
            for v in step.accepted:
                orig = v
                units += work.delete_vertex(v)
                if orig not in step.s_added:
                    raise TraceMismatch(
                        f"step {idx}: accepted original {orig} missing from s_added"
                    )
                s.add(orig)
        except (UnknownVertex, NoSuchEdge) as exc:
            raise TraceMismatch(f"step {idx} ({step.label}): {exc}") from exc
        if step.simplified:
            units += work.simplify()
        if units != step.removed_edges:
            raise TraceMismatch(
                f"step {idx} ({step.label}): recorded {step.removed_edges} edge units, "
                f"replay removed {units}"
            )
        if not step.deleted and not step.contracted and not step.accepted:
            raise TraceMismatch(f"step {idx} ({step.label}): no progress recorded")
        total_units += units
    if work.m != 0:
        raise TraceMismatch(f"{work.m} edge units left after replay")
    if s != sol.s:
        raise TraceMismatch("replayed output set differs from recorded set")
    if total_units != sol.m:
        raise TraceMismatch(f"replay consumed {total_units} units, input had {sol.m}")
    return total_units, deletions



def _from_nx(gx: nx.Graph) -> MultiGraph:
    g = MultiGraph()
    for v in gx.nodes:
        g.add_vertex(v)
    for u, v in gx.edges:
        g.add_edge(u, v)
    return g


def _random_multigraph(rng: random.Random) -> MultiGraph:
    """A small multigraph with loops and parallel bundles of up to 3 copies."""
    n = rng.randrange(1, 11)
    p = rng.choice((0.15, 0.3, 0.5))
    g = MultiGraph()
    for v in range(n):
        g.add_vertex(v)
        if rng.random() < 0.15:
            g.add_edge(v, v, rng.randrange(1, 3))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v, rng.choice((1, 1, 1, 2, 3)))
    return g


def _assert_same_verdicts(g: MultiGraph) -> None:
    assert certify.is_partial_2_tree(g) == (ref_sp_reduce(g).n == 0)
    assert certify.accepts_planar_residue(g) == ref_accepts_planar_residue(g)


def test_engine_matches_reference_on_graph_atlas():
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for gx in atlas:
        _assert_same_verdicts(_from_nx(gx))


def test_engine_matches_reference_on_random_multigraphs():
    rng = random.Random(2014)
    seen = set()
    for _ in range(1500):
        g = _random_multigraph(rng)
        _assert_same_verdicts(g)
        seen.add((certify.is_partial_2_tree(g), certify.accepts_planar_residue(g)))
    # Treewidth <= 2 empties the residue; every other pair of verdicts occurs.
    assert seen == {(True, True), (False, True), (False, False)}


def test_induced_subgraph_matches_reference():
    rng = random.Random(7)
    for _ in range(200):
        g = _random_multigraph(rng)
        s = {v for v in g.vertices() if rng.random() < 0.6}
        new, ref = certify.induced_subgraph(g, s), ref_induced_subgraph(g, s)
        assert list(new.vertices()) == list(ref.vertices())
        assert list(new.iter_edges()) == list(ref.iter_edges())


def test_replay_matches_reference_on_corpus():
    for tag, g in _corpus_recipe():
        for run, _ in REDUCERS.values():
            sol, _ = run(g)
            replay(g, sol)
            assert ref_replay(g, sol) == (sol.edge_events, sol.deletions), (tag, sol.algorithm)


def _non_simple_solution(first_step_units: int) -> tuple[MultiGraph, ReductionSolution]:
    """A parallel pair 0-1, a loop at 2, and the path 2-3-4.  The first
    step deletes 4 and simplifies, which must also remove the input's
    own loop and parallel copy; the second accepts the rest."""
    g = MultiGraph()
    g.add_edge(0, 1, 2)
    g.add_edge(2, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 4)
    trace = [
        TraceStep("DeleteAndSimplify", deleted=(4,), removed_edges=first_step_units,
                  simplified=True),
        TraceStep("AcceptRest", accepted=(0, 1, 2, 3), removed_edges=2,
                  s_added=(0, 1, 2, 3)),
    ]
    sol = ReductionSolution("test", g.n, g.m, {0, 1, 2, 3}, bound_num=1, bound_den=5,
                            trace=trace)
    return g, sol


def test_replay_simplifies_non_simple_input():
    g, sol = _non_simple_solution(3)
    replay(g, sol)
    assert ref_replay(g, sol) == (sol.edge_events, sol.deletions) == (5, 1)


def test_replay_rejects_missed_input_multiplicity():
    g, sol = _non_simple_solution(1)
    with pytest.raises(TraceMismatch):
        ref_replay(g, sol)
    with pytest.raises(TraceMismatch):
        replay(g, sol)
