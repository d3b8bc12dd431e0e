"""The one reducer table: algorithm name -> (run, certificates).

``run(g, params=None)`` returns ``(solution, ledger or None)``; only the
planar reducer keeps a ledger and takes params, as the text
``ChargeParams.parse`` reads.  The certificates are ordered ``(report
key, predicate on G[S])`` pairs from ``certify``, which imports no
reducer, so a reducer never vouches for itself.  Bound ratios live in
each solution's ``bound_num/bound_den``.
"""

from __future__ import annotations

from . import certify
from .errors import GraphError
from .multigraph import MultiGraph
from .planar import ChargeParams, reduce_planar
from .pseudoforest import reduce_pseudoforest
from .treewidth2 import reduce_treewidth2


def _without_params(algorithm: str, reducer):
    def run(g: MultiGraph, params: str | None = None):
        if params is not None:
            raise GraphError(f"{algorithm} takes no parameters; they apply to planar only")
        return reducer(g), None

    return run


def _planar(g: MultiGraph, params: str | None = None):
    return reduce_planar(g, ChargeParams.parse(params) if params is not None else None)


REDUCERS = {
    "pseudoforest": (_without_params("pseudoforest", reduce_pseudoforest),
                     (("pseudoforest", certify.is_pseudoforest),)),
    "tw2": (_without_params("tw2", reduce_treewidth2),
            (("partial_2_tree", certify.is_partial_2_tree),)),
    "planar": (_planar, (("planar", certify.is_planar),
                         ("structure", certify.accepts_planar_residue))),
}


def certificates(algorithm: str, g: MultiGraph, s: set[int]) -> dict[str, bool]:
    """The certificate verdicts for a reducer's output set S, on G[S]."""
    sub = certify.induced_subgraph(g, s)
    return {key: holds(sub) for key, holds in REDUCERS[algorithm][1]}
