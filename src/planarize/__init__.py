"""Graph reduction toolkit: large induced pseudoforest, treewidth-2, and
planar subgraphs with machine-checked size bounds and charge ledgers."""

from .multigraph import MultiGraph, from_edge_list
from .pseudoforest import reduce_pseudoforest
from .treewidth2 import reduce_treewidth2
from .planar import ChargeParams, LedgerState, reduce_planar

__version__ = "0.1.0"

__all__ = [
    "MultiGraph",
    "from_edge_list",
    "reduce_pseudoforest",
    "reduce_treewidth2",
    "reduce_planar",
    "ChargeParams",
    "LedgerState",
    "__version__",
]
