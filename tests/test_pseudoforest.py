import random
from collections import Counter
from itertools import combinations
from math import inf

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from planarize import certify, generators as gen, oracle
from planarize.errors import CaseAnalysisIncomplete, StaleDescriptor
from planarize.multigraph import MultiGraph, from_edge_list
from planarize.reducers import checked_run
from planarize.solution import ReductionSolution, aggregate_charge_ok, replay
import planarize.pseudoforest as pf
from test_casequeue import check_invariant
from test_planar_dispatch import _corpus_recipe, _from_nx


def _check_run(g, sol):
    assert sol.bound_holds(), "9|S| >= 9n - 2m must hold"
    assert certify.is_pseudoforest(certify.induced_subgraph(g, sol.s))
    assert sol.edge_events == sol.m
    replay(g, sol)
    # Replay has checked every step's units, so these counts are the trace's.
    assert aggregate_charge_ok(sol)


def _random_graph(seed, n_max=10, p=None):
    rng = random.Random(seed)
    n = rng.randrange(1, n_max + 1)
    p = p if p is not None else rng.choice([0.2, 0.35, 0.5, 0.75])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(edges, n)


def test_k33_is_tight():
    g = gen.complete_bipartite(3, 3)
    sol = pf.reduce_pseudoforest(g)
    assert len(sol.s) == 4
    _check_run(g, sol)


def test_isolated_triangle_goes_to_s_via_delta_a():
    g = gen.cycle(3)
    sol = pf.reduce_pseudoforest(g)
    assert sol.s == {0, 1, 2}
    assert [step.label for step in sol.trace] == [pf.DELTA_A]


def test_edgeless_graph_keeps_everything():
    g = gen.empty(7)
    sol = pf.reduce_pseudoforest(g)
    assert sol.s == set(range(7))


def test_k5_keeps_three():
    g = gen.complete(5)
    sol = pf.reduce_pseudoforest(g)
    assert len(sol.s) == 3
    labels = [step.label for step in sol.trace]
    assert labels[0] == pf.FOUR_REG_C1
    assert pf.DELTA_A in labels
    _check_run(g, sol)


def first_applicable_case(g: MultiGraph) -> pf.CaseDescriptor | None:
    """Reference dispatcher: scan every vertex, return the minimum-rank
    case with ties by anchor id; None when the graph is fully reduced."""
    best: pf.CaseDescriptor | None = None
    best_key = (len(pf._RANKS), -1)
    for v in g.sorted_vertices():
        d = pf._match_at(g, v)
        if d is None:
            continue
        key = (d.rank, v)
        if key < best_key:
            best, best_key = d, key
    if best is None:
        if g.m > 0:
            raise CaseAnalysisIncomplete(f"{g.m} edges left but no case matches")
        return None
    if best.label == pf.FOUR_REG_C4:
        return pf._c4_payload(g, best_key[1])
    return best


def test_first_applicable_case_k33_is_three_regular():
    desc = first_applicable_case(gen.complete_bipartite(3, 3))
    assert desc.label == pf.THREE_REGULAR


def test_first_applicable_case_path_is_leaf():
    desc = first_applicable_case(gen.path(4))
    assert desc.label == pf.LEAF
    assert desc.contracted[0][0] == 0


def test_first_applicable_case_done():
    assert first_applicable_case(gen.empty(0)) is None


def _two_k4s_matched():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    edges += [(i, i + 4) for i in range(4)]
    return from_edge_list(edges)


def test_double_linked_tetrahedra_hit_c3():
    g = _two_k4s_matched()
    desc = first_applicable_case(g)
    assert desc.label == pf.FOUR_REG_C3
    sol = pf.reduce_pseudoforest(g)
    _check_run(g, sol)


def _tetra_ring():
    # Five K4s, one external edge between every pair: the contracted
    # graph is K5, so only the cycle subcase applies.
    edges = []
    for i in range(5):
        base = 4 * i
        edges += [(base + a, base + b) for a in range(4) for b in range(a + 1, 4)]
    for i in range(5):
        for j in range(i + 1, 5):
            edges.append((4 * i + (j - 1), 4 * j + i))
    return from_edge_list(edges)


def test_tetra_ring_hits_c4():
    g = _tetra_ring()
    assert g.is_d_regular(4)
    desc = first_applicable_case(g)
    assert desc.label == pf.FOUR_REG_C4
    assert len(desc.deleted) == 2  # two off-cycle vertices to delete
    sol = pf.reduce_pseudoforest(g)
    _check_run(g, sol)


def _is_star(g, a):
    """N(a) induces a star with three edges."""
    nbrs, adj = g.neighbors(a), g.adjacency_map()
    within = sorted(sum(1 for v in nbrs if v in adj[u]) for u in nbrs)
    return within == [1, 1, 1, 3]


def test_star_neighborhood_is_subsumed_by_case_a():
    # Vertex 0 sees a star (neighbors 1..4 with 1 adjacent to 2, 3, 4),
    # but whenever a star neighborhood exists, one of its leaves admits
    # the two-disjoint-pairs case directly, so FourRegA fires first and
    # the star needs no case of its own.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    edges += [(2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
    g = from_edge_list(edges)
    assert g.is_d_regular(4)
    assert _is_star(g, 0) and not _is_star(g, 2)
    desc = first_applicable_case(g)
    assert desc.label == pf.FOUR_REG_A
    sol = pf.reduce_pseudoforest(g)
    assert sol.trace[0].label == pf.FOUR_REG_A
    _check_run(g, sol)


def _shared_triangle_pair():
    # Tetrahedra 0,2,3,4 and 1,2,3,4 share triangle 2,3,4 without
    # forming a K5; pendant links to a second gadget keep the graph
    # 4-regular so the shared-triangle subcase is first.
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    edges += [(5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)]
    edges += [(0, 5), (1, 6)]
    return from_edge_list(edges)


def test_shared_triangle_tetrahedra_hit_c2():
    g = _shared_triangle_pair()
    assert g.is_d_regular(4)
    desc = first_applicable_case(g)
    assert desc.label == pf.FOUR_REG_C2
    assert set(desc.deleted) == {0, 1}  # the two apexes get deleted
    sol = pf.reduce_pseudoforest(g)
    assert sol.trace[0].label == pf.FOUR_REG_C2
    assert sol.trace[1].label == pf.DELTA_A  # isolated shared triangle
    _check_run(g, sol)


def test_tightness_family():
    for t in (1, 5):
        g = gen.disjoint_copies(gen.complete_bipartite(3, 3), t)
        sol = pf.reduce_pseudoforest(g)
        assert len(sol.s) == 4 * t
        _check_run(g, sol)


def test_trace_is_deterministic():
    g = _random_graph(99, n_max=12)
    a = pf.reduce_pseudoforest(g)
    b = pf.reduce_pseudoforest(g)
    assert a.trace == b.trace and a.s == b.s


def _c4_payload_whole_graph(g):
    """The FourRegC4 payload as first written, over the whole graph:
    the reference for the search on the anchor's component only."""
    tetra, rep = {}, {}
    for v in g.sorted_vertices():
        t = pf._tetra_of(g, v)
        assert t is not None, f"vertex {v} lost its tetrahedron"
        tetra[min(t)] = t
        rep[v] = min(t)
    adj = {t: set() for t in tetra}
    link = {}
    for u, v, _ in g.iter_edges():
        tu, tv = rep[u], rep[v]
        if tu != tv:
            adj[tu].add(tv)
            adj[tv].add(tu)
            link.setdefault((min(tu, tv), max(tu, tv)), (u, v) if tu < tv else (v, u))
    cycle = pf._find_cycle(adj)
    t0 = min(cycle)
    i = cycle.index(t0)
    on_cycle = set()
    for other in (cycle[i - 1], cycle[(i + 1) % len(cycle)]):
        x, y = link[(min(t0, other), max(t0, other))]
        on_cycle.add(x if rep[x] == t0 else y)
    off = tuple(sorted(set(tetra[t0]) - on_cycle))
    return pf.CaseDescriptor(pf.FOUR_REG_C4, off)


def _check_keys(run):
    """The queue invariant, and the two the requeue rests on: every live
    vertex outside ``raised`` holds a live key at most its ``_key``, and
    every raised vertex y is registered, under the step ``raised`` gives
    it, on the watch list of every vertex its cases read: N[y], or N2[y]
    at degree 4, taken here from scratch."""
    def ranked(v):
        desc = pf._match_at(run.g, v)
        return None if desc is None else (desc.rank, desc)

    check_invariant(run.queue, run.g.vertices(), ranked)
    adj = run.g.adjacency_map()
    raised = run.raised.keys()
    assert raised <= adj.keys(), raised - adj.keys()
    for key, v in run._keyed(adj.keys() - raised):
        assert run.queue.queued.get(v, inf) <= key, (v, run.queue.queued.get(v))
    for y, at in run.raised.items():
        reads = {y, *adj[y]}
        if run.g.degree(y) == 4:
            reads = reads.union(*(adj[z] for z in adj[y]))
        for x in reads:
            assert (y, at) in run.watch.get(x, ()), (y, at, x)


def _new_run(g):
    return pf._Run(g.copy())


def _lockstep(g):
    """Step the lazy dispatcher and the reference scan on copies of g and
    compare every step; return the lazy run's solution."""
    run = _new_run(g)
    work = g.copy()
    ref = ReductionSolution("pseudoforest", g.n, g.m, set(), 2, 9)
    _check_keys(run)
    while True:
        desc = first_applicable_case(work)
        if desc is not None and desc.label == pf.FOUR_REG_C4:
            assert desc == _c4_payload_whole_graph(work)
        assert run.step() == (desc is not None)
        if desc is None:
            break
        pf.apply_case(work, desc, ref)
        assert len(run.sol.trace) == len(ref.trace)
        assert run.sol.trace[-1] == ref.trace[-1]
        _check_keys(run)
    assert run.g.n == 0 and run.g.m == 0
    assert run.sol.s == ref.s
    return run.sol


def _shuffled_union(parts, rng):
    """Disjoint union of the parts with the vertex ids shuffled, so that
    the components interleave in id order."""
    edges, offset = [], 0
    for h in parts:
        index = {v: offset + i for i, v in enumerate(h.sorted_vertices())}
        edges += [(index[u], index[v]) for u, v, _ in h.iter_edges()]
        offset += h.n
    perm = list(range(offset))
    rng.shuffle(perm)
    return from_edge_list([(perm[u], perm[v]) for u, v in edges], offset)


def _k4_blowup(h):
    """Each vertex of the 4-regular graph h becomes a K4 whose four
    vertices take its four edges, one each."""
    edges = [(4 * x + a, 4 * x + b) for x in h.vertices() for a in range(4) for b in range(a + 1, 4)]
    port = Counter()
    for x, y, _ in h.iter_edges():
        edges.append((4 * x + port[x], 4 * y + port[y]))
        port[x] += 1
        port[y] += 1
    return from_edge_list(edges)


def test_incremental_matches_reference_dispatcher():
    for seed in range(40):
        _lockstep(_random_graph(seed, n_max=11))


def test_lockstep_on_graph_atlas():
    for gx in nx.graph_atlas_g():
        _lockstep(_from_nx(gx))


def test_lockstep_on_corpus_recipe():
    labels = Counter()
    for _, g in _corpus_recipe():
        labels.update(step.label for step in _lockstep(g).trace)
    assert labels[pf.PREPROCESS] and labels[pf.DEG3_ADJ_DEG4] and labels[pf.FOUR_REG_A]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_lockstep_on_random_regular(d):
    for n in (12, 40, 150):
        for seed in range(3):
            _lockstep(_from_nx(nx.random_regular_graph(d, n, seed=seed)))


def test_lockstep_on_tetrahedra():
    labels = Counter()
    for g in (_two_k4s_matched(), _shared_triangle_pair()):
        labels.update(step.label for step in _lockstep(g).trace)
    rng = random.Random(5)
    parts = [_tetra_ring(), gen.complete_bipartite(3, 3), gen.complete(5)]
    for _ in range(12):
        mix = [rng.choice(parts) for _ in range(rng.randrange(2, 7))]
        labels.update(step.label for step in _lockstep(_shuffled_union(mix, rng)).trace)
    for n, seed in ((6, 0), (10, 1), (20, 2)):
        h = _from_nx(nx.random_regular_graph(4, n, seed=seed))
        blowup = _k4_blowup(h)
        assert blowup.is_d_regular(4)
        labels.update(step.label for step in _lockstep(_shuffled_union([blowup], rng)).trace)
    for case in (pf.FOUR_REG_C1, pf.FOUR_REG_C2, pf.FOUR_REG_C3, pf.FOUR_REG_C4):
        assert labels[case], case


def test_lockstep_on_triangle_rich_four_regular():
    # Line graphs of cubic graphs and the circulants C_n(1, 2), C_n(1, 3),
    # relabelled: every vertex lies in a triangle, so the runs reach the
    # DeltaB-DeltaD cases and a 4-regular phase that random 4-regular
    # inputs rarely reach.
    labels = Counter()
    rng = random.Random(8)
    graphs = [nx.line_graph(nx.random_regular_graph(3, n, seed=seed))
              for n in (8, 12, 20, 30, 50, 80) for seed in range(4)]
    graphs += [nx.circulant_graph(n, jumps) for n in range(7, 60) for jumps in ([1, 2], [1, 3])]
    for gx in graphs:
        g = _shuffled_union([_from_nx(nx.convert_node_labels_to_integers(gx))], rng)
        labels.update(step.label for step in _lockstep(g).trace)
    for case in (pf.DELTA_B, pf.DELTA_C, pf.DELTA_D, pf.FOUR_REG_A):
        assert labels[case], case


def _far_double_link():
    """A 4-regular graph in which a contraction completes a tetrahedron two
    steps away from a raised vertex, and so gives it a FourRegC3 case.

    Vertex 0 lies in the tetrahedron 0-3, whose outside neighbours are 4
    and 5 (the tetrahedron 4-7) and 13 and 14.  It pops first and goes
    back at rank 15: 13 lies in no tetrahedron yet.  Vertex 8 then
    deletes 11 and 12 (FourRegA), vertex 8 contracts into 9, and vertex 17
    into 15, which joins 15 to 16 and makes 13-16 a tetrahedron.  The
    contraction touches 13 to 16, 18 and 19, none of them next to 0."""
    def k4(vs):
        return list(combinations(vs, 2))

    edges = k4([0, 1, 2, 3]) + k4([4, 5, 6, 7]) + [(0, 4), (3, 5), (1, 13), (2, 14)]
    edges += [(13, 14), (13, 15), (13, 16), (14, 15), (14, 16), (15, 17), (16, 17)]
    edges += [(15, 18), (16, 19), (17, 11), (17, 12), (8, 9), (8, 10), (8, 11), (8, 12)]
    edges += [(11, 20), (11, 21), (12, 22), (12, 23), (6, 24), (7, 25)]
    # The rest is a Petersen graph, in which 9 and 10 are not adjacent.
    ports = dict(zip([0, 2, 1, 3, 4, 5, 6, 7, 8, 9], [9, 10, 18, 19, 20, 21, 22, 23, 24, 25]))
    edges += [(ports[a], ports[b]) for a, b in nx.petersen_graph().edges()]
    return from_edge_list(edges)


def test_raised_vertex_two_steps_from_a_contraction_goes_back():
    g = _far_double_link()
    assert g.is_d_regular(4)
    run = _new_run(g)
    run.step()
    assert run.queue.queued[0] == pf._RANKS[pf.FOUR_REG_C4] and 0 in run.raised
    run.step()
    run.step()
    assert [step.label for step in run.sol.trace] == [
        pf.FOUR_REG_A, pf.DEG2_NO_TRIANGLE, pf.DEG2_NO_TRIANGLE]
    assert pf._match_at(run.g, 0).label == pf.FOUR_REG_C3
    assert run.queue.queued[0] == pf._RANKS[pf.FOUR_REG_A]
    _lockstep(g)


def _work_per_step(g):
    run = _new_run(g)
    while run.step():
        pass
    steps = len(run.sol.trace)
    return run.keyed / steps, run.matched / steps


def test_requeue_work_per_step_on_random_4_regular():
    # Work counters, not times.  Keying the whole radius-2 ball of what a
    # step touched cost 48.7 keys and 2.79 matches per step here, keying
    # degree 3 at its degree bound 6.62 keys and 1.98 matches, keeping a
    # vertex raised after a push that left its key 6.47 keys, and keying
    # the other neighbours of w in Deg2NoTriangle 6.02 keys.
    keyed, matched = _work_per_step(gen.random_regular(4000, 4, 11))
    assert keyed <= 5, keyed
    assert matched <= 1.2, matched


def test_requeue_work_per_step_on_k33_copies():
    # Every vertex has degree 3 and fires ThreeRegular or a case after it;
    # keyed at its degree bound it cost 2.5 keys and 3.0 matches per step.
    keyed, matched = _work_per_step(gen.disjoint_copies(gen.complete_bipartite(3, 3), 1000))
    assert keyed <= 2.5, keyed
    assert matched <= 1.6, matched


def _state(g, sol):
    """What apply_case may change: the rows, S and the trace."""
    rows = {v: dict(row) for v, row in g.adjacency_map().items()}
    return rows, set(sol.s), list(sol.trace)


def test_stale_descriptor_rejected():
    g = gen.path(4)
    desc = first_applicable_case(g)
    sol = ReductionSolution("pseudoforest", g.n, g.m, set(), 2, 9)
    pf.apply_case(g, desc, sol)
    before = _state(g, sol)
    with pytest.raises(StaleDescriptor):
        pf.apply_case(g, desc, sol)
    assert _state(g, sol) == before


def test_stale_contracted_edge_rejected():
    # Every vertex the Leaf step names is live, but the edge it contracts
    # is gone.
    desc = first_applicable_case(gen.path(3))
    assert desc.contracted == ((0, 1, 1),)
    g = from_edge_list([(0, 2), (1, 2)])
    sol = ReductionSolution("pseudoforest", g.n, g.m, set(), 2, 9)
    before = _state(g, sol)
    with pytest.raises(StaleDescriptor):
        pf.apply_case(g, desc, sol)
    assert _state(g, sol) == before


def test_executor_takes_a_step_in_replay_order():
    # Delete, then contract, then accept: accepting 1 before the
    # contraction into it would leave no edge (0, 1) to contract.
    g = gen.path(4)
    desc = pf.CaseDescriptor("HandBuilt", deleted=(3,), contracted=((0, 1, 1),), accepted=(1, 2))
    sol = ReductionSolution("pseudoforest", g.n, g.m, set(), 2, 9)
    step, touched = pf.apply_case(g.copy(), desc, sol)
    assert (step.removed_edges, step.s_added, touched) == (3, (0, 1, 2), set())
    assert sol.s == {0, 1, 2} and sol.trace == [step]
    replay(g, sol)
    assert sol.edge_events == 3


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_bound_certificate_and_charges_on_randoms(seed):
    g = _random_graph(seed)
    sol = pf.reduce_pseudoforest(g)
    _check_run(g, sol)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_oracle_dominance_small(seed):
    g = _random_graph(seed, n_max=8)
    run = checked_run(g, "pseudoforest")
    best, _ = oracle.max_induced(g, oracle.PropertyId.PSEUDOFOREST)
    assert len(run.solution.s) <= best
    assert best >= run.bound


def test_regular_graph_runs():
    for n, d, seed in [(12, 3, 0), (16, 4, 1), (20, 4, 2), (10, 5, 3)]:
        g = gen.random_regular(n, d, seed)
        sol = pf.reduce_pseudoforest(g)
        _check_run(g, sol)
