import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planarize import certify, generators as gen, lp as lpmod, oracle, planar
from planarize.errors import DebtCapExceeded, InfeasibleParams
from planarize.multigraph import from_edge_list
from planarize.planar import ChargeParams, reduce_planar
from planarize.reducers import checked_run
from planarize.solution import replay


def _check_run(g, sol, ledger):
    assert sol.bound_holds(), "120|S| >= 120n - 23m must hold"
    sub = certify.induced_subgraph(g, sol.s)
    assert certify.is_planar(sub)
    assert certify.accepts_planar_residue(sub)
    assert sol.edge_events == sol.m
    low = ledger.min_charge()
    assert low is None or low >= 0
    replay(g, sol)


def _random_graph(seed, n_max=10):
    rng = random.Random(seed)
    n = rng.randrange(1, n_max + 1)
    p = rng.choice([0.2, 0.35, 0.5, 0.75])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(edges, n)


def test_k4_accepted_whole():
    g = gen.complete(4)
    sol, ledger = reduce_planar(g)
    assert sol.s == {0, 1, 2, 3}
    assert [e.charge for e in ledger.entries] == [Fraction(6)]
    _check_run(g, sol, ledger)


def test_k33_walkthrough():
    g = gen.complete_bipartite(3, 3)
    sol, ledger = reduce_planar(g)
    assert len(sol.s) == 5
    assert sol.s == {1, 2, 3, 4, 5}
    sub = certify.induced_subgraph(g, sol.s)
    # G[S] is K_{2,3}: six vertices minus the deleted one.
    assert (sub.n, sub.m) == (5, 6)
    degs = sorted(sub.degree(v) for v in sub.vertices())
    assert degs == [2, 2, 2, 3, 3]
    assert certify.accepts_planar_residue(sub)
    _check_run(g, sol, ledger)


def test_k6_walkthrough():
    g = gen.complete(6)
    sol, ledger = reduce_planar(g)
    assert len(sol.s) == 4
    charges = [e.charge for e in ledger.entries]
    assert charges == [Fraction(0), Fraction(0), Fraction(105, 23)]
    labels = [step.label for step in sol.trace]
    assert labels == ["Deg5Delete", "FourRegularDelete", "PlanarAccept"]
    _check_run(g, sol, ledger)


def test_k5_deletes_one_vertex():
    g = gen.complete(5)
    sol, ledger = reduce_planar(g)
    assert len(sol.s) == 4
    _check_run(g, sol, ledger)


def test_isolated_vertices_leave_by_acceptance():
    # An isolated input vertex is a component accepted on its own at
    # charge 0; the leaves 8 and 9 that deleting 0 isolates join S in
    # that same step.  No step harvests an isolated vertex by itself.
    g = gen.complete(5)
    for v in (5, 6, 7, 8, 9):
        g.add_vertex(v)
    g.add_edge(0, 8)
    g.add_edge(0, 9)
    sol, ledger = reduce_planar(g)
    assert [(s.label, s.deleted, s.accepted) for s in sol.trace] == [
        ("PlanarAccept", (), (5,)),
        ("PlanarAccept", (), (6,)),
        ("PlanarAccept", (), (7,)),
        ("Preprocess", (0,), (8, 9)),
        ("PlanarAccept", (), (1, 2, 3, 4)),
    ]
    assert [e.charge for e in ledger.entries[:3]] == [0, 0, 0]
    assert "HarvestIsolated" not in {e.label for e in ledger.entries}
    _check_run(g, sol, ledger)


def test_debt_free_contraction_charges_plus_one():
    # Subdivide one K33 edge: the graph is not residue-legal, so the
    # degree-2 subdivision vertex is contracted first, debt-free.
    g = gen.complete_bipartite(3, 3)
    g.remove_edge(0, 3)
    g.add_edge(0, 6)
    g.add_edge(6, 3)
    sol, ledger = reduce_planar(g)
    assert ledger.entries[0].label == "Deg2Contract"
    assert ledger.entries[0].charge == 1
    _check_run(g, sol, ledger)


def test_whole_tree_accepted_upfront():
    g = gen.path(3)
    sol, ledger = reduce_planar(g)
    assert sol.s == {0, 1, 2}
    assert [e.label for e in ledger.entries] == ["PlanarAccept"]
    assert ledger.entries[0].charge == 2


def test_four_regular_deletion_is_tight_zero():
    # Inside the K6 run the 4-regular deletion happens with every debt
    # at cap c4 and all issuances taken, landing exactly on zero.
    _, ledger = reduce_planar(gen.complete(6))
    assert ledger.entries[1].label == "FourRegularDelete"
    assert ledger.entries[1].charge == 0


def test_forced_raise_to_cap_yields_paper_charge():
    # With issuance forced to the cap (no greedy stopping), the pristine
    # 3-regular deletion in K33 charges 3 - (5 + 5/23) + 3 = 18/23.
    p = ChargeParams.paper()
    charge = Fraction(3) - (5 + p.epsilon) + 3 * (1 - 0)
    assert charge == Fraction(18, 23)


def test_k7_flow():
    g = gen.complete(7)
    sol, ledger = reduce_planar(g)
    assert len(sol.s) == 4
    assert sol.trace[0].label == "Preprocess"
    _check_run(g, sol, ledger)


def test_infeasible_params_rejected():
    bad = ChargeParams(Fraction(5, 23) + Fraction(1, 1000), Fraction(9, 46), Fraction(1, 23), Fraction(15, 23))
    with pytest.raises(InfeasibleParams):
        reduce_planar(gen.complete(4), params=bad)


def test_params_checked_once_per_value(monkeypatch):
    calls = []
    check = lpmod.check_feasible
    monkeypatch.setattr(lpmod, "check_feasible", lambda *args: calls.append(args) or check(*args))
    planar._violation.cache_clear()
    bad = ChargeParams(Fraction(5, 23) + Fraction(1, 1000), Fraction(9, 46), Fraction(1, 23), Fraction(15, 23))
    messages = []
    for _ in range(2):
        with pytest.raises(InfeasibleParams, match="charge parameters violate: ") as err:
            reduce_planar(gen.complete(4), params=bad)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    for _ in range(3):
        reduce_planar(gen.complete(4))
        ChargeParams.paper().validate()
    assert len(calls) == 2


def test_params_hash_by_value():
    # The hash is cached per instance; equal values must still hash alike,
    # so a parsed copy of the paper point shares its validation.
    paper = ChargeParams.paper()
    parsed = ChargeParams.parse(",".join(str(x) for x in paper.as_assignment().values()))
    assert parsed is not paper and parsed == paper
    assert hash(parsed) == hash(paper) == hash((paper.epsilon, paper.c3, paper.c4, paper.tau))
    assert {paper: 1}[parsed] == 1


def test_params_scale_by_the_lcm_of_their_denominators():
    paper = ChargeParams.paper().scaled
    assert paper.unit == 46
    assert (paper.delete, paper.tau) == (240, 30)  # 5 + 5/23 and 15/23, times 46
    assert [paper.cap(d) for d in range(7)] == [46, 46, 46, 9, 2, 0, 0]
    quarter = ChargeParams.parse("0,1/4,0,1").scaled
    assert (quarter.unit, quarter.delete, quarter.tau) == (4, 20, 4)
    assert [quarter.cap(d) for d in range(6)] == [4, 4, 4, 1, 0, 0]


def test_ledger_makes_one_fraction_per_entry(monkeypatch):
    # The ledger runs in integers times L; the one Fraction a step makes
    # is its entry's charge.  Every Fraction constructed in a run counts.
    params = ChargeParams.paper()
    reduce_planar(gen.complete(5), params)  # validate and scale outside the count
    graphs = [gen.random_regular(300, 4, 11), gen.disjoint_copies(gen.complete(5), 50)]
    made = 0
    construct = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for g in graphs:
        made = 0
        _, ledger = reduce_planar(g, params)
        assert made <= len(ledger.entries) + 4, (made, len(ledger.entries))


def test_debt_cap_message_reads_in_the_papers_units():
    g = gen.complete(4)
    ledger = planar.LedgerState(ChargeParams.paper())
    ledger.debt[0] = 10  # 10/46 = 5/23 at degree 3, over its cap of 9/46
    message = "debt 5/23 on vertex 0 outside [0, 9/46] at degree 3"
    with pytest.raises(DebtCapExceeded, match=re.escape(message)):
        ledger.audit_caps(g, ledger.debt)


def test_alternate_feasible_params_work():
    mild = ChargeParams(Fraction(0), Fraction(1, 4), Fraction(0), Fraction(1))
    for seed in range(20):
        g = _random_graph(seed, n_max=9)
        sol, ledger = reduce_planar(g, params=mild)
        assert sol.bound_holds()
        assert all(e.charge >= 0 for e in ledger.entries)


def test_debt_caps_respected_along_runs():
    # audit_caps runs inside every step; a full pass means caps held.
    for seed in range(30):
        g = _random_graph(seed)
        sol, ledger = reduce_planar(g)
        _check_run(g, sol, ledger)


def test_bowtie_and_glued_cycles_accepted():
    bowtie = from_edge_list([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    sol, ledger = reduce_planar(bowtie)
    assert sol.s == {0, 1, 2, 3, 4}
    _check_run(bowtie, sol, ledger)


def test_five_regular_pairing_graph():
    # Forces the bowtie remnant; the whole-component acceptance keeps
    # five vertices where chasing the K4/dipole shapes would keep four.
    g = gen.random_regular(8, 5, 0)
    sol, ledger = reduce_planar(g)
    assert len(sol.s) >= 5
    _check_run(g, sol, ledger)


def test_disconnected_mixed_components():
    g = gen.disjoint_copies(gen.complete(5), 2)
    extra = gen.complete_bipartite(3, 3)
    base = max(g.vertices()) + 1
    for u, v, _ in extra.iter_edges():
        g.add_edge(base + u, base + v)
    sol, ledger = reduce_planar(g)
    _check_run(g, sol, ledger)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ledger_nonnegative_on_randoms(seed):
    g = _random_graph(seed)
    sol, ledger = reduce_planar(g)
    _check_run(g, sol, ledger)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_oracle_dominance_small(seed):
    g = _random_graph(seed, n_max=8)
    run = checked_run(g, "planar")
    best, _ = oracle.max_induced(g, oracle.PropertyId.PLANAR)
    assert len(run.solution.s) <= best
    assert best >= run.bound


def test_regular_graph_sweep():
    for d in (3, 4, 5):
        for n in (8, 12, 20):
            if (n * d) % 2:
                continue
            for seed in range(3):
                g = gen.random_regular(n, d, seed)
                sol, ledger = reduce_planar(g)
                _check_run(g, sol, ledger)


def test_output_treewidth_at_most_three_small():
    for seed in range(25):
        g = _random_graph(seed, n_max=9)
        sol, _ = reduce_planar(g)
        sub = certify.induced_subgraph(g, sol.s)
        if sub.n <= 10:
            assert oracle.exact_treewidth(sub) <= 3
