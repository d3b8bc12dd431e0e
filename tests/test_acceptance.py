"""Acceptance suite: one test per shipping criterion, each printing a
PASS line (run with -s to see them).  Tolerances are exact integer or
exact rational checks unless a criterion is an explicit smoke test.
"""

import functools
import random
import time
from fractions import Fraction
from pathlib import Path

from planarize import certify, generators as gen, lp, oracle, planar, pseudoforest as pf
from planarize import treewidth2 as tw2
from planarize.minors import level_contract
from planarize.multigraph import from_edge_list
from planarize.planar import ChargeParams, reduce_planar
from planarize.pseudoforest import reduce_pseudoforest
from planarize.reducers import REDUCERS, checked_run
from planarize.treewidth2 import reduce_treewidth2
from planarize.solution import aggregate_charge_ok, drive
from test_pseudoforest import _tetra_ring


def _ok(num, msg):
    print(f"ACCEPTANCE {num}: PASS  {msg}")


def _corpus_rule4():
    """Seeded corpus shared by criteria 4 and 7: random regular graphs
    with n <= 60, d <= 5, plus dense small graphs."""
    graphs = []
    for d in (2, 3, 4, 5):
        for n in (8, 12, 16, 24, 32, 40, 52, 60):
            if (n * d) % 2:
                continue
            for seed in range(4):
                graphs.append((f"rr(n={n},d={d},s={seed})", gen.random_regular(n, d, seed)))
    rng = random.Random(2026)
    while len(graphs) < 500:
        n = rng.randrange(5, 13)
        p = 0.55 + 0.4 * rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append((f"dense(n={n},#{len(graphs)})", from_edge_list(edges, n)))
    return graphs


def test_criterion_1_pseudoforest_tight_family():
    for t in (1, 10, 100):
        g = gen.disjoint_copies(gen.complete_bipartite(3, 3), t)
        t0 = time.perf_counter()
        sol = reduce_pseudoforest(g)
        wall = time.perf_counter() - t0
        assert len(sol.s) == 4 * t, f"expected 4t = {4 * t}, got {len(sol.s)}"
        assert certify.is_pseudoforest(certify.induced_subgraph(g, sol.s))
        if t == 100:
            assert wall < 1.0, f"t=100 took {wall:.3f}s"
    best, _ = oracle.max_induced(gen.complete_bipartite(3, 3), oracle.PropertyId.PSEUDOFOREST)
    assert best == 4
    _ok(1, "|S| = 4t on t copies of K33 for t in {1,10,100}, certified, t=100 under 1 s")


def test_criterion_2_tw2_tight_family():
    for t in (1, 10, 100):
        g = gen.disjoint_copies(gen.complete(5), t)
        sol = reduce_treewidth2(g)
        assert len(sol.s) == 3 * t, f"expected 3t = {3 * t}, got {len(sol.s)}"
        assert certify.is_partial_2_tree(certify.induced_subgraph(g, sol.s))
    _ok(2, "|S| = 3t on t copies of K5 for t in {1,10,100}, certified")


def test_criterion_3_planar_walkthroughs():
    sol, _ = reduce_planar(gen.complete(4))
    assert sol.s == {0, 1, 2, 3}

    g33 = gen.complete_bipartite(3, 3)
    sol33, _ = reduce_planar(g33)
    assert len(sol33.s) == 5
    sub = certify.induced_subgraph(g33, sol33.s)
    assert (sub.n, sub.m) == (5, 6)
    assert sorted(sub.degree(v) for v in sub.vertices()) == [2, 2, 2, 3, 3]
    assert certify.is_planar(sub) and not certify.is_pseudoforest(sub)

    sol6, _ = reduce_planar(gen.complete(6))
    assert len(sol6.s) == 4
    _ok(3, "K4 -> 4, K33 -> 5 with G[S] = K23, K6 -> 4")


# Per reducer: the paper's bound ratio num/den in |S| >= n - (num/den) m,
# its certificate keys, and the oracle property of its output class,
# written out here so that they are checked independently of the
# reducers and of ``reducers.REDUCERS``.
PAPER_SPEC = {
    "pseudoforest": ((2, 9), ("pseudoforest",), oracle.PropertyId.PSEUDOFOREST),
    "tw2": ((1, 5), ("partial_2_tree",), oracle.PropertyId.TREEWIDTH2),
    "planar": ((23, 120), ("planar", "structure"), oracle.PropertyId.PLANAR),
}


def _checked_runs(g, tag):
    """Every reducer on g through ``reducers.checked_run``, yielding
    (solution, ledger or None) once the paper's bound, recomputed here,
    holds, the trace replays and every certificate on G[S] holds; a
    negative planar charge raises."""
    assert set(REDUCERS) == set(PAPER_SPEC)
    for alg in REDUCERS:
        run = checked_run(g, alg)
        sol = run.solution
        (num, den), keys, _ = PAPER_SPEC[alg]
        assert (sol.algorithm, sol.bound_num, sol.bound_den) == (alg, num, den), tag
        assert den * len(sol.s) >= den * g.n - num * g.m, (tag, alg)
        assert run.replayed, (tag, alg, run.mismatch)
        assert run.certificates == dict.fromkeys(keys, True), (tag, alg)
        yield sol, run.ledger


def test_criterion_4_and_7_bounds_certificates_ledger():
    graphs = _corpus_rule4()
    assert len(graphs) >= 500
    t0 = time.perf_counter()
    min_charge = None
    for tag, g in graphs:
        for _, ledger in _checked_runs(g, tag):
            if ledger is None:
                continue
            low = ledger.min_charge()
            assert low is None or low >= 0, tag
            if low is not None and (min_charge is None or low < min_charge):
                min_charge = low
    wall = time.perf_counter() - t0
    assert wall < 120, f"corpus took {wall:.1f}s"
    _ok(4, f"{len(graphs)} graphs: all exact bounds and certificates hold ({wall:.1f}s)")
    _ok(7, f"ledger non-negative on the same corpus (min step charge {min_charge})")


def test_criterion_5_oracle_cross_check():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 10)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = from_edge_list(edges, n)
        checked += 1
        # The certificates hold, so the certifiers agree when the oracle's
        # predicate holds as well.
        for sol, _ in _checked_runs(g, edges):
            prop = PAPER_SPEC[sol.algorithm][2]
            best, _ = oracle.max_induced(g, prop)
            assert len(sol.s) <= best
            assert oracle.PREDICATES[prop](certify.induced_subgraph(g, sol.s)), (edges, prop)
    _ok(5, f"{checked} graphs with n <= 9: bound <= |S| <= oracle optimum, certifiers agree")


def test_criterion_6_lp_reproduction():
    value, point = lp.solve(lp.default_lp())
    assert value == Fraction(5, 23)
    assert point == {
        "epsilon": Fraction(5, 23),
        "c3": Fraction(9, 46),
        "c4": Fraction(1, 23),
        "tau": Fraction(15, 23),
    }
    rows = {r.name: r for r in lp.check_feasible(lp.default_lp(), point)}
    assert rows["three-regular"].slack == 0
    assert rows["four-regular"].slack == 0
    _ok(6, "lp solve returns exactly 5/23 at (5/23, 9/46, 1/23, 15/23); "
           "three-regular and four-regular rows tight")


def test_criterion_8_minor_identities():
    for n in (19, 31, 101):
        g = gen.cycle(n)
        res = level_contract(g)
        assert res.m_prime == g.m - g.n + res.n_prime
        assert res.minor.is_simple()
        assert res.n_prime <= -(-g.n // res.ell) + 1

    # Rejection filter for cubic girth >= 11 at n <= 60: provably empty
    # (Moore bound needs >= 94 vertices), asserted rather than assumed.
    hits = 0
    for n in (20, 40, 60):
        for seed in range(25):
            g3 = gen.random_regular(n, 3, seed)
            girth = g3.girth()
            if girth is not None and girth >= 11:
                hits += 1
    assert hits == 0

    # Desk-scale high-girth substitutes: subdivided cubic cages.
    for base, k in ((gen.petersen(), 2), (gen.heawood(), 2)):
        g = gen.subdivide(base, k)
        assert (g.girth() or 0) >= 11
        res = level_contract(g)
        assert res.m_prime == g.m - g.n + res.n_prime
        assert res.minor.is_simple()

    for fixture in (gen.mcgee, gen.tutte_coxeter):
        g = fixture()
        res = level_contract(g)
        assert res.ell == 1
        assert (res.n_prime, res.m_prime) == (g.n, g.m)  # identity minor
    _ok(8, "m' = m - n + n' and simplicity on cycles and high-girth graphs; "
           "girth-11 cubic filter empty at n <= 60; cages give identity minors")


def test_criterion_9_scaling_smoke():
    def ladder(reducer, sizes, make):
        # Each rung's time is the best of five runs.  The runs go round
        # the rungs in turn, so a change in the host's speed reaches every
        # rung alike instead of inflating one ratio.  With the best of
        # three, the pseudoforest rr4 ladder read 3.07 once in a full run
        # on a loaded host, against 2.1-2.3 alone.
        graphs = [make(size) for size in sizes]
        times = [float("inf")] * len(graphs)
        for _ in range(5):
            for i, g in enumerate(graphs):
                t0 = time.perf_counter()
                reducer(g)
                times[i] = min(times[i], time.perf_counter() - t0)
        return [b / a for a, b in zip(times, times[1:])], times

    def ratios(work):
        return [b / a for a, b in zip(work, work[1:])]

    def work_ratios(sizes, make):
        # The pseudoforest work counters (vertices keyed again after steps,
        # matcher calls and watch-list registrations) are deterministic, so
        # this gate cannot flake.
        work = []
        for size in sizes:
            run = drive(make(size), pf._Run)
            work.append(run.keyed + run.matched + run.registered)
        return ratios(work)

    def planar_work(sizes, make):
        # The planar work counters (matcher calls plus queue pushes) are
        # deterministic too, and so is the split work: the rows that keeping
        # the components connected reads (ROADMAP direction 5).  The parent
        # steps of its tree walks are recorded, not gated.
        work, split, walked = [], [], []
        for size in sizes:
            run = drive(make(size), functools.partial(planar._Run, params=ChargeParams.paper()))
            work.append(run.matched + run.pushed)
            split.append(run.table.split_work)
            walked.append(run.table.walked)
        return ratios(work), ratios(split), (split, walked)

    def tw2_work(sizes, make):
        # The tw2 work counters: queue pops plus matcher calls.
        work = []
        for size in sizes:
            run = drive(make(size), tw2._Run)
            work.append(run.queue.popped + run.matched)
        return ratios(work)

    def k33(t):
        return gen.disjoint_copies(gen.complete_bipartite(3, 3), t)

    def rr4(n):
        return gen.random_regular(n, 4, 11)

    def tetra(t):
        return gen.disjoint_copies(_tetra_ring(), t)

    # At t = 1000 the first rung took under 0.1 s, short enough for host
    # load to swing a ratio past the gate; the reducer is linear, so the
    # rungs start at t = 2000.
    ratios_pf, times_pf = ladder(reduce_pseudoforest, (2000, 4000, 8000), k33)
    assert all(r <= 3.0 for r in ratios_pf), ("pseudoforest-k33", ratios_pf, times_pf)
    work_pf = work_ratios((2000, 4000, 8000), k33)
    assert all(r <= 2.5 for r in work_pf), ("pseudoforest-k33 work", work_pf)

    # At n = 2000 / 4000 the rungs were short enough (0.04-0.25 s) that
    # noise on a loaded host pushed the ratio over the gate.
    ratios_pf_rr4, times_pf_rr4 = ladder(reduce_pseudoforest, (4000, 8000), rr4)
    assert all(r <= 3.0 for r in ratios_pf_rr4), ("pseudoforest-rr4", ratios_pf_rr4, times_pf_rr4)
    work_pf_rr4 = work_ratios((4000, 8000), rr4)
    assert all(r <= 2.5 for r in work_pf_rr4), ("pseudoforest-rr4 work", work_pf_rr4)

    # All-tetrahedra components: FourRegC4 fires once per component.
    ratios_pf_tetra, times_pf_tetra = ladder(reduce_pseudoforest, (100, 200), tetra)
    assert all(r <= 3.0 for r in ratios_pf_tetra), ("pseudoforest-tetra",
                                                    ratios_pf_tetra, times_pf_tetra)
    work_pf_tetra = work_ratios((100, 200), tetra)
    assert all(r <= 2.5 for r in work_pf_tetra), ("pseudoforest-tetra work", work_pf_tetra)

    ratios_tw, times_tw = ladder(
        reduce_treewidth2,
        (10000, 20000),
        lambda n: gen.random_regular(n, 4, 11),
    )
    assert all(r <= 3.0 for r in ratios_tw), ("tw2-rr4", ratios_tw, times_tw)
    work_tw = tw2_work((10000, 20000), rr4)
    assert all(r <= 2.5 for r in work_tw), ("tw2-rr4 work", work_tw)

    work_rr4, split_rr4, counts_rr4 = planar_work((2000, 4000), rr4)
    assert all(r <= 2.5 for r in work_rr4), ("planar-rr4 work", work_rr4)
    assert all(r <= 2.5 for r in split_rr4), ("planar-rr4 split work", split_rr4,
                                              "split work, parent steps", counts_rr4)
    ratios_rr4, times_rr4 = ladder(
        reduce_planar,
        (2000, 4000),
        lambda n: gen.random_regular(n, 4, 11),
    )
    assert all(r <= 3.0 for r in ratios_rr4), ("planar-rr4", ratios_rr4, times_rr4)

    def k5(t):
        return gen.disjoint_copies(gen.complete(5), t)

    work_k5, split_k5, counts_k5 = planar_work((1000, 2000), k5)
    assert all(r <= 2.5 for r in work_k5), ("planar-k5 work", work_k5)
    assert all(r <= 2.5 for r in split_k5), ("planar-k5 split work", split_k5,
                                             "split work, parent steps", counts_k5)
    ratios_k5, times_k5 = ladder(reduce_planar, (1000, 2000), k5)
    assert all(r <= 3.0 for r in ratios_k5), ("planar-k5", ratios_k5, times_k5)
    _ok(9, f"doubling ratios pseudoforest {['%.2f' % r for r in ratios_pf]}, "
           f"pseudoforest rr4 {['%.2f' % r for r in ratios_pf_rr4]}, pseudoforest "
           f"tetra ring xt {['%.2f' % r for r in ratios_pf_tetra]}, "
           f"tw2 {['%.2f' % r for r in ratios_tw]}, planar rr4 "
           f"{['%.2f' % r for r in ratios_rr4]}, planar K5xt "
           f"{['%.2f' % r for r in ratios_k5]} (threshold 3.0); planar work rr4 "
           f"{['%.2f' % r for r in work_rr4]}, K5xt {['%.2f' % r for r in work_k5]}, "
           f"planar split work rr4 {['%.2f' % r for r in split_rr4]}, K5xt "
           f"{['%.2f' % r for r in split_k5]}, tw2 work {['%.2f' % r for r in work_tw]} "
           f"(threshold 2.5); planar split work and parent steps rr4 {counts_rr4}, "
           f"K5xt {counts_k5}")


def test_criterion_10_out_of_scope_statement():
    # The asymptotic deletion bound and asymptotic minor density are not
    # reproducible at desk scale (they need graph families with girth
    # growing like log n); the README must say so explicitly, and the
    # constructive kernel (criterion 8's identities) stands in.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "not reproducible at desk scale" in text
    _ok(10, "README states the asymptotic results are out of desk-scale scope")


def test_trace_replays_for_all_three():
    g = gen.random_regular(16, 4, 3)
    for sol, _ in _checked_runs(g, "rr(16,4,3)"):
        assert aggregate_charge_ok(sol), sol.algorithm


def test_exhaustive_all_graphs_up_to_five_vertices():
    # Every labeled graph on at most 5 vertices, all three reducers,
    # exact bounds, trace replay, certificates, and a non-negative ledger.
    # (The same sweep passes for n = 6 as well; kept at 5 to stay fast.)
    from itertools import combinations

    count = 0
    for n in range(0, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            list(_checked_runs(from_edge_list(edges, n), edges))
            count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024
    print(f"exhaustive n<=5 sweep: {count} graphs clean")


def test_graph_atlas_all_three_reducers():
    # Every graph on up to 7 vertices, one per isomorphism class: exact
    # bounds recomputed from n and m, certificates, and trace replay.
    import networkx as nx

    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for i, gx in enumerate(atlas):
        g = from_edge_list(list(gx.edges()), gx.number_of_nodes())
        list(_checked_runs(g, i))
    print(f"graph atlas: {len(atlas)} graphs clean for all three reducers")
