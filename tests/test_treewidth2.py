import random

import pytest
from hypothesis import given, settings, strategies as st

from planarize import certify, generators as gen, oracle
from planarize.errors import TraceMismatch
from planarize.multigraph import from_edge_list
from planarize.solution import TraceStep, replay
import planarize.treewidth2 as tw2


def _check_run(g, sol):
    assert sol.bound_holds(), "5|S| >= 5n - m must hold"
    assert certify.is_partial_2_tree(certify.induced_subgraph(g, sol.s))
    assert sol.edge_events == sol.m
    report = replay(g, sol)
    assert report.nonnegative


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
    report = replay(g, sol)
    assert report.deletions == 2
    assert report.edge_events == 10
    assert report.scaled_charge == 0


def test_c4_keeps_all():
    g = gen.cycle(4)
    sol = tw2.reduce_treewidth2(g)
    assert sol.s == {0, 1, 2, 3}
    report = replay(g, sol)
    assert report.scaled_charge == 4 and report.deletions == 0


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
    sol = tw2.reduce_treewidth2(g)
    best, _ = oracle.max_induced(g, oracle.PropertyId.TREEWIDTH2)
    assert len(sol.s) <= best
    assert best >= sol.bound_value()


def test_regular_graphs():
    for n, d, seed in [(12, 3, 0), (16, 4, 1), (14, 5, 5)]:
        if (n * d) % 2:
            continue
        g = gen.random_regular(n, d, seed)
        sol = tw2.reduce_treewidth2(g)
        _check_run(g, sol)
