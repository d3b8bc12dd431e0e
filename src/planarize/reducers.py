"""The one reducer table, and the one checked run over it.

``REDUCERS`` maps an algorithm name to ``(run, certificates)``.
``run(g, params=None)`` returns ``(solution, ledger or None)``; only the
planar reducer keeps a ledger and takes params, as the text
``ChargeParams.parse`` reads.  ``certificates(G[S])`` maps each report
key, in report order, to the verdict of a predicate from ``certify``,
which imports no reducer, so a reducer never vouches for itself.  The
planar class's two verdicts come from one residue pass
(``certify.planar_verdicts``).  Bound ratios live in
each solution's ``bound_num/bound_den``.  The CLI and the corpus script
run a reducer only through ``checked_run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import certify
from .errors import (ASSERTION_ERRORS, GraphError, InfeasibleParams, NotSimple, ParseError,
                     ReducerFault, TraceMismatch)
from .multigraph import MultiGraph
from .planar import ChargeParams, LedgerState, reduce_planar
from .pseudoforest import reduce_pseudoforest
from .solution import ReductionSolution, replay
from .treewidth2 import reduce_treewidth2


def _without_params(algorithm: str, reducer):
    def run(g: MultiGraph, params: str | None = None):
        if params is not None:
            raise InfeasibleParams(f"{algorithm} takes no parameters; they apply to planar only")
        return reducer(g), None

    return run


def _planar(g: MultiGraph, params: str | None = None):
    return reduce_planar(g, ChargeParams.parse(params) if params is not None else None)


def _certificate(key: str, holds):
    return lambda sub: {key: holds(sub)}


def _planar_certificates(sub: MultiGraph) -> dict[str, bool]:
    planar, structure = certify.planar_verdicts(sub)
    return {"planar": planar, "structure": structure}


REDUCERS = {
    "pseudoforest": (_without_params("pseudoforest", reduce_pseudoforest),
                     _certificate("pseudoforest", certify.is_pseudoforest)),
    "tw2": (_without_params("tw2", reduce_treewidth2),
            _certificate("partial_2_tree", certify.is_partial_2_tree)),
    "planar": (_planar, _planar_certificates),
}


@dataclass(frozen=True)
class CheckedRun:
    """A reducer's output and the verdicts of the checks made apart from
    it.  ``bound`` is (den * n - num * m) / den over the input's n and m;
    ``mismatch`` is why the trace did not replay, None when it did."""

    solution: ReductionSolution
    ledger: LedgerState | None
    bound: Fraction
    mismatch: TraceMismatch | None
    certificates: dict[str, bool]

    @property
    def replayed(self) -> bool:
        return self.mismatch is None

    @property
    def slack(self) -> Fraction:
        return len(self.solution.s) - self.bound


def checked_run(g: MultiGraph, algorithm: str, params: str | None = None) -> CheckedRun:
    """Run ``REDUCERS[algorithm]`` on g, then the checks that share no code
    with it: replay its trace on g, the bound from g's n and m, and the
    certificates on G_in[S].  A failed check is a verdict, not an error.

    What the input causes raises as it is: a g that is not simple
    (NotSimple, from the reducer's one input check, before it does any
    work), and params the reducer rejects (ParseError or InfeasibleParams).
    Any other toolkit error the reducer raises, or an S that names a vertex
    not in g, is re-raised as ReducerFault.
    """
    run, certificates = REDUCERS[algorithm]
    try:
        sol, ledger = run(g, params)
        sub = certify.induced_subgraph(g, sol.s)
    except (ParseError, InfeasibleParams, NotSimple, *ASSERTION_ERRORS):
        raise
    except GraphError as exc:
        raise ReducerFault(f"{algorithm}: {type(exc).__name__}: {exc}") from exc
    try:
        replay(g, sol)
        mismatch = None
    except TraceMismatch as exc:
        mismatch = exc
    bound = Fraction(sol.bound_den * g.n - sol.bound_num * g.m, sol.bound_den)
    return CheckedRun(sol, ledger, bound, mismatch, certificates(sub))
