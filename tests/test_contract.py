"""The reducer contract shared by all three reducers.

``solution.drive`` runs every reducer: ``solution.require_simple`` is
its one input check, one stall check follows the step loop, and
``solution.check_result`` is its one post-condition block;
``solution.take`` is the one step executor.  So a tampered solution, or
a run that stops early, fails the same way for every reducer.
"""

import dataclasses
from fractions import Fraction

import pytest

from planarize import generators as gen, planar, pseudoforest as pf, treewidth2 as tw2
from planarize.errors import (
    BoundViolation,
    CaseAnalysisIncomplete,
    GraphError,
    ReducerFault,
    TraceMismatch,
)
from planarize.graphio import write_graph_text
from planarize.multigraph import MultiGraph, from_edge_list
from planarize.planar import ChargeParams, reduce_planar
from planarize.reducers import REDUCERS, checked_run
from planarize.solution import ReductionSolution, TraceStep, check_result, replay, take
from test_cli import run_cli

RUNS = {"pseudoforest": pf._Run, "tw2": tw2._Run, "planar": planar._Run}


def _empty_output(sol):
    sol.s.clear()


def _extra_edge_unit(sol):
    sol.trace[0] = dataclasses.replace(sol.trace[0], removed_edges=sol.trace[0].removed_edges + 1)


def _extra_deletion(sol):
    # Bound and edge count still hold; only the aggregate charge breaks.
    sol.trace.append(TraceStep("Tampered", deleted=(99,)))


TAMPERS = [
    (_empty_output, BoundViolation, "bound failed"),
    (_extra_edge_unit, CaseAnalysisIncomplete, "consumed 10 edge units, input had 9"),
    (_extra_deletion, BoundViolation, "aggregate charge went negative"),
]


@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_require_simple_rejects_multigraphs(algorithm):
    g = MultiGraph()
    g.add_edge(0, 1, 2)
    with pytest.raises(GraphError, match="must be simple"):
        REDUCERS[algorithm][0](g)
    # The input's fault, so the checked run does not call it the reducer's.
    with pytest.raises(GraphError, match="must be simple") as info:
        checked_run(g, algorithm)
    assert not isinstance(info.value, ReducerFault)


@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_checked_run_checks_simplicity_once(algorithm, monkeypatch, tmp_path, capsys):
    calls = []
    is_simple = MultiGraph.is_simple
    monkeypatch.setattr(MultiGraph, "is_simple", lambda g: calls.append(g) or is_simple(g))
    g = gen.complete(5)
    checked_run(g, algorithm)
    assert calls == [g]
    # A file always parses to a simple graph, so hand the CLI a multigraph:
    # it fails the one check, exit 1 with the message, before any step.
    multi = MultiGraph()
    multi.add_edge(0, 1, 2)
    monkeypatch.setattr("planarize.graphio.read_graph", lambda path: multi)
    monkeypatch.setattr(RUNS[algorithm], "step", lambda run: pytest.fail("reducer stepped"))
    code, out, err = run_cli(capsys, "reduce", "--alg", algorithm, "-i", str(tmp_path / "g.txt"))
    assert (code, out, err) == (1, "", "error: reducer inputs must be simple graphs\n")


def test_input_check_comes_before_planar_params():
    g = MultiGraph()
    g.add_edge(0, 1, 2)
    harsh = ChargeParams(Fraction(2), Fraction(1, 4), Fraction(0), Fraction(1))
    with pytest.raises(GraphError, match="must be simple"):
        reduce_planar(g, harsh)


@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_a_run_that_stops_early_stalls(algorithm, monkeypatch, tmp_path, capsys):
    # The run takes its first step and then reports no case left, with
    # K5 only partly reduced.
    assert set(RUNS) == set(REDUCERS)
    take_step = RUNS[algorithm].step
    monkeypatch.setattr(RUNS[algorithm], "step", lambda run: not run.sol.trace and take_step(run))
    g = gen.complete(5)
    stalled = f"^{algorithm} reducer stalled with n="
    with pytest.raises(CaseAnalysisIncomplete, match=stalled):
        REDUCERS[algorithm][0](g)
    with pytest.raises(CaseAnalysisIncomplete, match=stalled):
        checked_run(g, algorithm)
    path = tmp_path / "k5.txt"
    path.write_text(write_graph_text(g))
    code, out, err = run_cli(capsys, "reduce", "--alg", algorithm, "-i", str(path))
    assert (code, out) == (2, "")
    assert f"{algorithm} reducer stalled" in err and "Traceback" not in err


@pytest.mark.parametrize("tamper, error, message", TAMPERS)
@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_check_result_rejects_tampered_solution(algorithm, tamper, error, message):
    sol, _ = REDUCERS[algorithm][0](gen.complete_bipartite(3, 3))
    assert check_result(sol) is sol
    tamper(sol)
    with pytest.raises(error, match=message):
        check_result(sol)


def test_take_records_a_step_in_replay_order():
    # 5 is deleted; contracting 1 into 0 doubles the edge 0-2, which
    # ``simplify`` merges; contracting the lone edge 3-4 into 3 leaves 3 at
    # degree 0, which the generator reads only after the contractions.
    g = from_edge_list([(0, 1), (0, 2), (1, 2), (3, 4), (5, 0), (5, 4)])
    work = g.copy()
    degree = work.degree_map()
    sol = ReductionSolution("handbuilt", g.n, g.m, set(), 1, 5)
    step = take(work, sol, "HandBuilt", deleted=(5,), contracted=((0, 1, 0), (3, 4, 3)),
                accepted=(y for y in (2, 3) if degree[y] == 0), simplify=True)
    assert step == TraceStep("HandBuilt", deleted=(5,), contracted=((0, 1, 0), (3, 4, 3)),
                             accepted=(3,), removed_edges=5, s_added=(1, 4, 3), simplified=True)
    assert sol.s == {1, 3, 4} and sol.trace == [step]
    assert sorted(work.vertices()) == [0, 2] and work.m == 1
    rest = take(work, sol, "Rest", accepted=(0, 2), simplify=True)
    assert (rest.removed_edges, rest.s_added, rest.simplified) == (1, (0, 2), False)
    replay(g, sol)
    assert sol.edge_events == g.m == 6

    # Without ``simplify`` the parallel copy stays and is not counted.
    work = g.copy()
    plain = take(work, ReductionSolution("handbuilt", g.n, g.m, set(), 1, 5), "Plain",
                 contracted=((0, 1, 0),))
    assert (plain.removed_edges, plain.s_added, plain.simplified) == (1, (1,), False)
    assert work.multiplicity(0, 2) == 2


def _contracted_away(step):
    return [v if survivor == u else u for u, v, survivor in step.contracted]


@pytest.mark.parametrize("algorithm, ends, what", [
    ("pseudoforest", _contracted_away, "contracted-away"),
    ("planar", lambda step: list(step.accepted), "accepted"),
], ids=["contracted", "accepted"])
def test_replay_rejects_a_step_whose_s_added_omits_a_vertex(algorithm, ends, what):
    # Only the step's s_added loses the vertex; S keeps it, so the
    # replayed output set still equals the recorded one and the step's
    # own check is what catches the omission.
    g = gen.complete_bipartite(3, 3)
    sol, _ = REDUCERS[algorithm][0](g)
    idx, v = next((i, ends(step)[0]) for i, step in enumerate(sol.trace) if ends(step))
    step = sol.trace[idx]
    sol.trace[idx] = dataclasses.replace(step, s_added=tuple(x for x in step.s_added if x != v))
    message = rf"^step {idx}: {what} original {v} missing from s_added$"
    with pytest.raises(TraceMismatch, match=message):
        replay(g, sol)


@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_replay_rejects_a_trace_that_leaves_a_vertex_behind(algorithm):
    # An isolated input vertex leaves in a step of its own that removes no
    # edge unit.  Dropping that step and the vertex's place in S keeps the
    # edge counts and the output set consistent; only the vertex left in
    # the replayed graph shows that the trace is short.
    g = gen.complete_bipartite(3, 3)
    g.add_vertex(6)
    sol, _ = REDUCERS[algorithm][0](g)
    idx = next(i for i, step in enumerate(sol.trace) if step.accepted == (6,))
    assert sol.trace[idx].removed_edges == 0 and not sol.trace[idx].deleted
    del sol.trace[idx]
    sol.s.remove(6)
    with pytest.raises(TraceMismatch, match=r"^1 vertices left after replay$"):
        replay(g, sol)


def test_steps_and_case_descriptors_stay_frozen_dataclasses():
    # Both are built through their slot descriptors; assignment afterwards
    # must still raise, and ``replace`` and ``==`` must still work field by
    # field.
    g = gen.path(4)
    sol = ReductionSolution("handbuilt", g.n, g.m, set(), 1, 5)
    step = take(g.copy(), sol, "HandBuilt", deleted=(3,), contracted=((0, 1, 1),), accepted=(2,))
    desc = pf._match_at(g, 0)
    assert desc == pf.CaseDescriptor(pf.LEAF, contracted=((0, 1, 1),))
    for made, field in ((step, "removed_edges"), (desc, "label"), (step, "s_added")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, field, getattr(made, field))
    assert step == TraceStep("HandBuilt", (3,), ((0, 1, 1),), (2,), 3, (0, 2), False)
    assert step != dataclasses.replace(step, simplified=True)
    moved = dataclasses.replace(step, s_added=(2, 0))
    assert (moved.s_added, moved.removed_edges) == ((2, 0), 3) and step.s_added == (0, 2)
    assert hash(step) == hash(dataclasses.replace(moved, s_added=(0, 2)))
    other = dataclasses.replace(desc, deleted=(0,))
    assert (other.label, other.deleted, other.contracted) == (pf.LEAF, (0,), ((0, 1, 1),))
    assert other != desc and dataclasses.replace(other, deleted=()) == desc
