"""Shared result types and the reducer contract, plus trace replay.

``drive`` is the contract, written once for every reducer: it takes a
simple graph (``require_simple``), steps the reducer's run on a copy of
it until no case is left, raises CaseAnalysisIncomplete if the graph is
not empty by then, and asserts with ``check_result`` that the run's
``ReductionSolution`` satisfies den * |S| >= den * n - num * m and the
edge accounting.  Each reducer's run names its algorithm and bound ratio
once, in the solution it builds.

A trace records every mutation a reducer performed, each step taken
by ``take``.  ``replay`` re-executes a trace on a copy of the input with
its own copy of ``take``'s rules; any divergence, a step's edge-unit
count included, raises TraceMismatch.  So once it returns, the trace's
counts are the input's, whatever state the reducer kept.
``reducers.checked_run`` replays every run it makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from .errors import (
    BoundViolation,
    CaseAnalysisIncomplete,
    NoSuchEdge,
    NotSimple,
    TraceMismatch,
    UnknownVertex,
)
from .multigraph import MultiGraph

_R = TypeVar("_R")

@dataclass(frozen=True, slots=True, init=False)
class TraceStep:
    """One reduction step.

    Every id is an input vertex id: the working graph keeps the input's
    ids, and a contraction keeps the survivor's.

    deleted: vertices removed without joining the output set.
    contracted: (u, v, survivor) edge contractions, in order; the end
        that vanishes joins the output set.
    accepted: vertices that joined the output set and left the working
        graph (their incident edges removed).
    removed_edges: total edge units consumed by this step, including
        units removed by simplification when the step simplifies.
    s_added: the vertices this step added to the output set.
    simplified: True when the step contracted with ``take``'s ``simplify``
        on, merging loops and parallel copies at each survivor (tw2, planar).

    A step is immutable, because a trace is evidence: ``replay`` and the
    ledger read it after the reducer is done.  ``__init__`` fills the
    slots through their descriptors, once per field.  The generated
    ``__init__`` of a frozen dataclass goes through ``object.__setattr__``
    for every field and costs about twice as much; assignment after
    construction still raises ``FrozenInstanceError``.
    """

    label: str
    deleted: tuple[int, ...] = ()
    contracted: tuple[tuple[int, int, int], ...] = ()
    accepted: tuple[int, ...] = ()
    removed_edges: int = 0
    s_added: tuple[int, ...] = ()
    simplified: bool = False

    def __init__(self, label: str, deleted: tuple[int, ...] = (),
                 contracted: tuple[tuple[int, int, int], ...] = (), accepted: tuple[int, ...] = (),
                 removed_edges: int = 0, s_added: tuple[int, ...] = (),
                 simplified: bool = False) -> None:
        _set_label(self, label)
        _set_deleted(self, deleted)
        _set_contracted(self, contracted)
        _set_accepted(self, accepted)
        _set_removed_edges(self, removed_edges)
        _set_s_added(self, s_added)
        _set_simplified(self, simplified)


(_set_label, _set_deleted, _set_contracted, _set_accepted, _set_removed_edges, _set_s_added,
 _set_simplified) = (getattr(TraceStep, name).__set__ for name in TraceStep.__slots__)


@dataclass
class ReductionSolution:
    """Output set S of input vertex ids plus the exact bound ratio.

    The guarantee is den * |S| >= den * n - num * m, checked in integers.
    """

    algorithm: str
    n: int
    m: int
    s: set[int]
    bound_num: int
    bound_den: int
    trace: list[TraceStep] = field(default_factory=list)

    def bound_holds(self) -> bool:
        return self.bound_den * len(self.s) >= self.bound_den * self.n - self.bound_num * self.m

    @property
    def deletions(self) -> int:
        return sum(len(step.deleted) for step in self.trace)

    @property
    def edge_events(self) -> int:
        return sum(step.removed_edges for step in self.trace)


def take(g: MultiGraph, sol: ReductionSolution, label: str, deleted: tuple[int, ...] = (),
         contracted: tuple[tuple[int, int, int], ...] = (), accepted: Iterable[int] = (),
         simplify: bool = False) -> TraceStep:
    """Take one step on g and record it in sol: delete, then contract each
    (u, v, survivor), the end that vanishes joining S (with
    ``simplify``, then merge at the survivor), then accept, each accepted
    vertex joining S.
    ``accepted`` is read only after the contractions, so it may name the
    vertices they isolated.  The one producer of trace steps: ``replay``
    keeps its own copy of these rules so that a fault here cannot vouch
    for itself.

    Beyond the graph changes a step makes one list, at most one tuple
    for ``s_added`` (none when nothing is contracted, since ``s_added``
    is then ``accepted`` itself) and one ``TraceStep``, which stays
    frozen because the trace is what ``replay`` and the ledger check."""
    units = 0
    delete = g.delete_vertex
    for v in deleted:
        units += delete(v)
    gone = []
    for u, v, survivor in contracted:
        gone.append(v if survivor == u else u)
        g.contract_edge(u, v, survivor)
        units += 1
        if simplify:
            units += g.simplify_at(survivor)
    accepted = tuple(accepted)
    for v in accepted:
        units += delete(v)
    s_added = (*gone, *accepted) if gone else accepted
    step = TraceStep(label, deleted, contracted, accepted, units, s_added,
                     simplify and bool(contracted))
    sol.s.update(s_added)
    sol.trace.append(step)
    return step


def replay(g: MultiGraph, sol: ReductionSolution) -> None:
    """Re-execute a trace on a copy of g, verifying every recorded step.

    Raises TraceMismatch if the trace does not apply cleanly, if any
    step's recorded edge-unit count disagrees with the replayed one, if
    it leaves an edge unit or a vertex behind, or if the rebuilt output
    set differs from the recorded one.

    A step costs the graph changes it names and a set of its
    ``s_added``, which is one to three vertices in most steps but a whole
    component in planar's acceptance; the graph's mutators are bound once
    for the whole trace.
    """
    work = g.copy()
    delete_vertex, contract_edge, simplify_at = work.delete_vertex, work.contract_edge, work.simplify_at
    # Vertices that may carry a loop or a parallel copy.  Only contraction
    # creates multiplicity, and only at its survivor, so simplifying at
    # these vertices equals a whole-graph simplify.  A row has one exactly
    # when its vertex has more edge ends than distinct neighbours.
    rows, degree = work.adjacency_map(), work.degree_map()
    dirty = {u for u, row in rows.items() if degree[u] != len(row)}
    s: set[int] = set()
    total_units = 0
    for idx, step in enumerate(sol.trace):
        units = 0
        s_added = set(step.s_added)
        try:
            for v in step.deleted:
                units += delete_vertex(v)
            for u, v, survivor in step.contracted:
                gone = u if survivor == v else v
                contract_edge(u, v, survivor)
                dirty.add(survivor)
                if gone not in s_added:
                    raise TraceMismatch(
                        f"step {idx}: contracted-away original {gone} missing from s_added"
                    )
                s.add(gone)
                units += 1
            for v in step.accepted:
                units += delete_vertex(v)
                if v not in s_added:
                    raise TraceMismatch(
                        f"step {idx}: accepted original {v} missing from s_added"
                    )
                s.add(v)
        except (UnknownVertex, NoSuchEdge) as exc:
            raise TraceMismatch(f"step {idx} ({step.label}): {exc}") from exc
        if step.simplified:
            for v in dirty:
                if v in rows:
                    units += simplify_at(v)
            dirty.clear()
        if units != step.removed_edges:
            raise TraceMismatch(
                f"step {idx} ({step.label}): recorded {step.removed_edges} edge units, "
                f"replay removed {units}"
            )
        if not step.deleted and not step.contracted and not step.accepted:
            raise TraceMismatch(f"step {idx} ({step.label}): no progress recorded")
        total_units += units
    if work.m != 0:
        raise TraceMismatch(f"{work.m} edge units left after replay")
    if work.n != 0:
        raise TraceMismatch(f"{work.n} vertices left after replay")
    if s != sol.s:
        raise TraceMismatch("replayed output set differs from recorded set")
    if total_units != sol.m:
        raise TraceMismatch(f"replay consumed {total_units} units, input had {sol.m}")


def aggregate_charge_ok(sol: ReductionSolution) -> bool:
    """num * edge_events >= den * deletions: the whole-run form of the
    +1 per edge / -(den/num) per deletion charging scheme."""
    return sol.bound_num * sol.edge_events >= sol.bound_den * sol.deletions


def require_simple(g: MultiGraph) -> None:
    """The input check ``drive`` makes before copying its input."""
    if not g.is_simple():
        raise NotSimple("reducer inputs must be simple graphs")


def check_result(sol: ReductionSolution) -> ReductionSolution:
    """The post-conditions ``drive`` asserts on every finished run.

    The integer bound, every input edge unit consumed exactly once, and
    the aggregate charge.  Each vertex leaves either deleted or into S
    (accepted, or contracted away), which ``replay`` checks, so
    n = |S| + deletions; once edge_events == m the aggregate charge is the
    bound itself, restated over the trace.
    """
    num, den = sol.bound_num, sol.bound_den
    if not sol.bound_holds():
        raise BoundViolation(
            f"{sol.algorithm} bound failed: {den}*{len(sol.s)} < {den}*{sol.n} - {num}*{sol.m}"
        )
    if sol.edge_events != sol.m:
        raise CaseAnalysisIncomplete(
            f"consumed {sol.edge_events} edge units, input had {sol.m}"
        )
    if not aggregate_charge_ok(sol):
        raise BoundViolation(f"{sol.algorithm}: aggregate charge went negative")
    return sol


def drive(g_in: MultiGraph, start: Callable[[MultiGraph], _R]) -> _R:
    """Run a reducer under the contract and return the finished run.

    ``start(g)`` builds the run on g, a copy of g_in made once g_in is
    known to be simple: an object holding the working graph ``g``, its
    ``ReductionSolution`` ``sol``, and ``step()``, which takes the next
    case and returns False once there is none.  A graph left non-empty
    then means the case analysis missed a case; otherwise the solution
    must pass ``check_result``.
    """
    require_simple(g_in)
    run = start(g_in.copy())
    step = run.step
    while step():
        pass
    g = run.g
    if g.n or g.m:
        raise CaseAnalysisIncomplete(f"{run.sol.algorithm} reducer stalled with n={g.n}, m={g.m}")
    check_result(run.sol)
    return run
