"""The reducer contract shared by all three reducers.

``solution.require_simple`` is the one input check and
``solution.check_result`` the one post-condition block; each reducer
calls both, so a tampered solution fails the same way for every one.
"""

import dataclasses

import pytest

from planarize import generators as gen
from planarize.errors import BoundViolation, CaseAnalysisIncomplete, GraphError
from planarize.multigraph import MultiGraph
from planarize.reducers import REDUCERS
from planarize.solution import TraceStep, check_result


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


@pytest.mark.parametrize("tamper, error, message", TAMPERS)
@pytest.mark.parametrize("algorithm", sorted(REDUCERS))
def test_check_result_rejects_tampered_solution(algorithm, tamper, error, message):
    sol, _ = REDUCERS[algorithm][0](gen.complete_bipartite(3, 3))
    assert check_result(sol) is sol
    tamper(sol)
    with pytest.raises(error, match=message):
        check_result(sol)
