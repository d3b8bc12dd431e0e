"""Exception types shared across the toolkit."""


class GraphError(Exception):
    """Base class for all toolkit errors."""


class UnknownVertex(GraphError):
    """A vertex id is not present in the graph."""


class NoSuchEdge(GraphError):
    """The requested edge does not exist (or is a loop where one is not allowed)."""


class LoopInInput(GraphError):
    """An input edge list contains a self loop; inputs must be simple graphs."""


class NotSimple(GraphError):
    """A reducer input has a loop or a parallel edge; reducers take simple graphs."""


class ParseError(GraphError):
    """A graph file could not be parsed."""


class TooLarge(GraphError):
    """Instance exceeds the configured brute-force size cap."""


class InvalidSpec(GraphError):
    """A generator family specification is malformed or unsatisfiable."""


class InsufficientGirth(GraphError):
    """Girth is too small (or undefined) for the level contraction."""


class Disconnected(GraphError):
    """Operation requires a connected graph."""


class CaseAnalysisIncomplete(GraphError):
    """Edges remain but no reduction case matches; indicates an implementation bug."""


class StaleDescriptor(GraphError):
    """A case descriptor no longer matches the current graph state."""


class TraceMismatch(GraphError):
    """A trace cannot be replayed against the given input graph."""


class LedgerError(GraphError):
    """Base class for amortized-accounting violations."""


class NegativeCharge(LedgerError):
    """A reduction step produced a negative ledger charge."""


class DebtCapExceeded(LedgerError):
    """A vertex debt exceeds the credit limit for its current degree."""


class InfeasibleParams(GraphError):
    """Supplied charge parameters violate the analysis constraints."""


class BoundViolation(GraphError):
    """A reducer's output set is smaller than its guaranteed size bound."""


class CertificateFailure(GraphError):
    """An output subgraph failed its structural certificate."""


class ReducerFault(GraphError):
    """A reducer raised a toolkit error past its input checks, or its trace does not replay."""


class Infeasible(GraphError):
    """Linear program has no feasible point."""


class Unbounded(GraphError):
    """Linear program objective is unbounded."""


class MissingVariable(GraphError):
    """An assignment does not cover every LP variable."""


# Failed internal assertions: the CLI exits 2 on these and never downgrades them.
ASSERTION_ERRORS = (LedgerError, BoundViolation, CaseAnalysisIncomplete, CertificateFailure,
                    ReducerFault)
