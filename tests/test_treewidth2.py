import heapq
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from planarize import certify, generators as gen, oracle
from planarize.errors import CaseAnalysisIncomplete, TraceMismatch
from planarize.multigraph import MultiGraph, from_edge_list
from planarize.reducers import checked_run
from planarize.solution import ReductionSolution, TraceStep, aggregate_charge_ok, replay
from planarize.treewidth2 import (
    CONTRACT_DEG12,
    DELETE_ADJ_DEG3,
    DELETE_MAX_DEG,
    HARVEST,
    PREPROCESS,
)
import planarize.treewidth2 as tw2
from test_casequeue import check_invariant
from test_planar_dispatch import _corpus_recipe, _from_nx


def _check_run(g, sol):
    assert sol.bound_holds(), "5|S| >= 5n - m must hold"
    assert certify.is_partial_2_tree(certify.induced_subgraph(g, sol.s))
    assert sol.edge_events == sol.m
    replay(g, sol)
    # Replay has checked every step's units, so these counts are the trace's.
    assert aggregate_charge_ok(sol)


def _random_graph(seed, n_max=10):
    rng = random.Random(seed)
    n = rng.randrange(1, n_max + 1)
    p = rng.choice([0.2, 0.35, 0.5, 0.75])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(edges, n)


def test_k5_keeps_three():
    g = gen.complete(5)
    sol = tw2.reduce_treewidth2(g)
    assert len(sol.s) == 3
    sub = certify.induced_subgraph(g, sol.s)
    assert (sub.n, sub.m) == (3, 3)  # a triangle
    _check_run(g, sol)


def test_k5_charge_is_exactly_zero():
    g = gen.complete(5)
    sol = tw2.reduce_treewidth2(g)
    replay(g, sol)
    assert sol.deletions == 2
    assert sol.edge_events == 10
    assert sol.bound_num * sol.edge_events - sol.bound_den * sol.deletions == 0


def test_c4_keeps_all():
    g = gen.cycle(4)
    sol = tw2.reduce_treewidth2(g)
    assert sol.s == {0, 1, 2, 3}
    replay(g, sol)
    assert sol.deletions == 0
    assert sol.bound_num * sol.edge_events - sol.bound_den * sol.deletions == 4


def test_empty_input():
    sol = tw2.reduce_treewidth2(gen.empty(5))
    assert sol.s == set(range(5))


def test_petersen_within_oracle_bounds():
    g = gen.petersen()
    sol = tw2.reduce_treewidth2(g)
    assert len(sol.s) >= 7
    best, _ = oracle.max_induced(g, oracle.PropertyId.TREEWIDTH2)
    assert len(sol.s) <= best
    _check_run(g, sol)


def test_tight_family():
    for t in (1, 4):
        g = gen.disjoint_copies(gen.complete(5), t)
        sol = tw2.reduce_treewidth2(g)
        assert len(sol.s) == 3 * t
        _check_run(g, sol)


def test_preprocessing_handles_high_degree():
    g = from_edge_list([(0, i) for i in range(1, 8)], 8)  # star K_{1,7}
    sol = tw2.reduce_treewidth2(g)
    assert sol.bound_holds()
    assert certify.is_partial_2_tree(certify.induced_subgraph(g, sol.s))


def test_global_max_degree_rule():
    # A degree-4 vertex adjacent to a degree-3 vertex is deleted before
    # any degree-3 vertex, even when a lower-id degree-3 vertex has only
    # degree-3 neighbors.
    edges = [
        (0, 1), (0, 2), (1, 2),
        (0, 3), (1, 3), (2, 3),  # K4 on 0..3
        (4, 5), (4, 6), (5, 6),
        (4, 7), (5, 7), (6, 7),  # K4 on 4..7
        (3, 8), (7, 8), (8, 9), (8, 4),
    ]
    g = from_edge_list(edges)
    sol = tw2.reduce_treewidth2(g)
    _check_run(g, sol)


def test_tampered_trace_raises():
    g = gen.complete(5)
    sol = tw2.reduce_treewidth2(g)
    sol.trace.append(TraceStep("DeleteMaxDeg", deleted=(0,), removed_edges=1))
    with pytest.raises(TraceMismatch):
        replay(g, sol)


def test_wrong_edge_count_raises():
    g = gen.complete(5)
    sol = tw2.reduce_treewidth2(g)
    step = sol.trace[0]
    sol.trace[0] = TraceStep(
        step.label,
        deleted=step.deleted,
        contracted=step.contracted,
        accepted=step.accepted,
        removed_edges=step.removed_edges + 1,
        s_added=step.s_added,
        simplified=step.simplified,
    )
    with pytest.raises(TraceMismatch):
        replay(g, sol)


def test_trace_replays_against_wrong_graph():
    sol = tw2.reduce_treewidth2(gen.complete(5))
    with pytest.raises(TraceMismatch):
        replay(gen.complete(4), sol)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bound_certificate_and_charges_on_randoms(seed):
    g = _random_graph(seed)
    sol = tw2.reduce_treewidth2(g)
    _check_run(g, sol)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_oracle_dominance_small(seed):
    g = _random_graph(seed, n_max=8)
    run = checked_run(g, "tw2")
    best, _ = oracle.max_induced(g, oracle.PropertyId.TREEWIDTH2)
    assert len(run.solution.s) <= best
    assert best >= run.bound


def test_regular_graphs():
    for n, d, seed in [(12, 3, 0), (16, 4, 1), (14, 5, 5)]:
        if (n * d) % 2:
            continue
        g = gen.random_regular(n, d, seed)
        sol = tw2.reduce_treewidth2(g)
        _check_run(g, sol)


# -- the case queue against the bucket heaps it replaced ----------------

class _Buckets:
    """Degree-indexed lazy heaps over the working graph."""

    def __init__(self, g: MultiGraph) -> None:
        self.g = g
        self.h0: list[int] = []
        self.h12: list[int] = []
        self.h3_with4: list[int] = []
        self.h3: list[int] = []
        self.h4: list[int] = []
        self.hpre: list[int] = []
        for v in g.vertices():
            self.push(v)

    def push(self, v: int) -> None:
        g = self.g
        if not g.has_vertex(v):
            return
        d = g.degree(v)
        if d >= 5:
            heapq.heappush(self.hpre, v)
        elif d == 0:
            heapq.heappush(self.h0, v)
        elif d <= 2:
            heapq.heappush(self.h12, v)
        elif d == 3:
            if any(g.degree(u) == 4 for u in g.neighbors(v)):
                heapq.heappush(self.h3_with4, v)
            heapq.heappush(self.h3, v)
        else:
            heapq.heappush(self.h4, v)

    def peek(self, heap: list[int], want) -> int | None:
        """The smallest live vertex of heap that passes want, left in
        place; stale entries in front of it are dropped.  A vertex taken
        from hpre, h0, h12 or h4 leaves the graph in that step, so its
        entry goes stale."""
        g = self.g
        while heap:
            v = heap[0]
            if g.has_vertex(v) and want(v):
                return v
            heapq.heappop(heap)
        return None


class ReferenceRun:
    """The earlier tw2 loop over ``_Buckets``, kept verbatim; one call of
    ``step`` is one pass of its ``while g.n > 0`` loop."""

    def __init__(self, g_in: MultiGraph) -> None:
        self.g = g_in.copy()
        self.sol = ReductionSolution("tw2", g_in.n, g_in.m, set(), bound_num=1, bound_den=5)
        self.bk = _Buckets(self.g)

    def step(self) -> bool:
        g, sol, bk = self.g, self.sol, self.bk
        if g.n == 0:
            return False

        def repush(vs) -> None:
            for v in vs:
                bk.push(v)

        def delete(label: str, v: int) -> None:
            nbrs = g.neighbors(v)
            units = g.delete_vertex(v)
            sol.trace.append(TraceStep(label, deleted=(v,), removed_edges=units))
            repush(nbrs)
            # Second ring: a neighbor dropping from 5 to 4 can turn its
            # own degree-3 neighbors into deletion anchors.
            for x in nbrs:
                if g.has_vertex(x):
                    repush(g.neighbors(x))

        v = bk.peek(bk.hpre, lambda x: g.degree(x) >= 5)
        if v is not None:
            delete(PREPROCESS, v)
            return True

        v = bk.peek(bk.h0, lambda x: g.degree(x) == 0)
        if v is not None:
            orig = v
            g.delete_vertex(v)
            sol.s.add(orig)
            sol.trace.append(TraceStep(HARVEST, accepted=(v,), s_added=(orig,)))
            return True

        v = bk.peek(bk.h12, lambda x: 1 <= g.degree(x) <= 2)
        if v is not None:
            u = g.neighbors(v)[0]
            affected = set(g.neighbors(v)) | set(g.neighbors(u)) | {u}
            orig = v
            g.contract_edge(v, u, u)
            cleaned = g.simplify_at(u)
            sol.s.add(orig)
            sol.trace.append(
                TraceStep(
                    CONTRACT_DEG12,
                    contracted=((v, u, u),),
                    removed_edges=1 + cleaned,
                    s_added=(orig,),
                    simplified=True,
                )
            )
            affected.discard(v)
            repush(x for x in affected if g.has_vertex(x))
            if g.has_vertex(u):
                repush(g.neighbors(u))
            return True

        # No low-degree vertices left: delete next to a degree-3 vertex if
        # one exists, preferring the globally largest adjacent degree.
        a = bk.peek(bk.h3_with4, lambda x: g.degree(x) == 3
                    and any(g.degree(u) == 4 for u in g.neighbors(x)))
        if a is not None:
            delete(DELETE_ADJ_DEG3, min(u for u in g.neighbors(a) if g.degree(u) == 4))
            return True

        a = bk.peek(bk.h3, lambda x: g.degree(x) == 3)
        if a is not None:
            # Degrees never rise once no vertex has degree 5 or more, so a
            # new 3-next-to-4 pair can only appear at a re-pushed vertex.
            if any(g.degree(u) == 4 for u in g.neighbors(a)):
                raise CaseAnalysisIncomplete(
                    f"degree-3 vertex {a} has a degree-4 neighbour the buckets missed"
                )
            delete(DELETE_ADJ_DEG3, min(g.neighbors(a)))
            return True

        # Only degree-4 vertices remain once the earlier branches pass.
        v = bk.peek(bk.h4, lambda x: g.degree(x) == 4)
        if v is not None:
            delete(DELETE_MAX_DEG, v)
            return True

        raise CaseAnalysisIncomplete(f"no case matched with n={g.n}, m={g.m}")


def _check_keys(run):
    check_invariant(run.queue, run.g.vertices(), run._match)


def _lockstep(g):
    """Step the case-queue loop and the bucket loop on copies of g and
    compare every step; return the queue run's solution."""
    ref = ReferenceRun(g)
    run = tw2._Run(g.copy())
    _check_keys(run)
    while True:
        more = ref.step()
        assert run.step() == more
        if not more:
            break
        assert run.sol.trace[-1] == ref.sol.trace[-1]
        _check_keys(run)
    assert run.sol.trace == ref.sol.trace
    assert run.sol.s == ref.sol.s
    return run.sol


def test_lockstep_on_graph_atlas():
    for gx in nx.graph_atlas_g():
        _lockstep(_from_nx(gx))


def test_lockstep_on_corpus_recipe():
    labels = Counter()
    for _, g in _corpus_recipe():
        labels.update(step.label for step in _lockstep(g).trace)
    for label in (PREPROCESS, HARVEST, CONTRACT_DEG12, DELETE_ADJ_DEG3, DELETE_MAX_DEG):
        assert labels[label], label


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_lockstep_on_random_regular(d):
    for n in (12, 40, 150):
        for seed in range(3):
            _lockstep(_from_nx(nx.random_regular_graph(d, n, seed=seed)))


def test_lockstep_on_disjoint_copies():
    for t in (1, 3, 10):
        for inner in (gen.complete(5), gen.complete_bipartite(3, 3)):
            _lockstep(gen.disjoint_copies(inner, t))


def _work_per_step(g):
    run = tw2._Run(g.copy())
    while run.step():
        pass
    steps = len(run.sol.trace)
    return run.queue.popped / steps, run.matched / steps


def test_work_per_step_on_random_4_regular():
    # Work counters, not times: heap pops (stale entries included) and
    # matcher calls read 2.68 and 1.20 per step here.
    popped, matched = _work_per_step(gen.random_regular(4000, 4, 11))
    assert popped <= 3, popped
    assert matched <= 1.3, matched


def test_work_per_step_on_disjoint_copies():
    # K5 x 1000 reads 3.4 pops and 1.8 matches per step, K33 x 1000 3.33
    # and 2.0.
    for inner in (gen.complete(5), gen.complete_bipartite(3, 3)):
        popped, matched = _work_per_step(gen.disjoint_copies(inner, 1000))
        assert popped <= 3.5, (inner.n, popped)
        assert matched <= 2, (inner.n, matched)
