"""Planar (treewidth <= 3) reducer with a step-exact charge ledger.

Case priority: accept whole any component whose contraction residue is
already a legal output core (K4, the dipole, cycles, trees, and their
cycle-gluings) when its edge units cover the debts being settled; then
delete a vertex of degree 6 or more; contract an edge at a degree-<=2
vertex (vertex to S, then simplify, so the working graph stays simple);
delete a vertex of a 3-regular component; delete a degree-5 vertex;
delete a degree-4 vertex adjacent to a degree-3 vertex; delete a vertex
of a 4-regular component.  An isolated input vertex is a component that
is accepted at charge 0; vertices a step isolates join S in that step.

Every case is a step of one executor (``_Run._take``), and the ledger
replays the amortized analysis exactly: every removed edge unit is +1,
every deleted vertex -(5+epsilon), less the debts and the tau the step
clears.  Debts are issued lazily: when a step would otherwise go
negative, vertices whose degree dropped in that step are raised toward
the credit cap of their new degree, in id order, until the step is
solvent; the whole-component debt tau is issued the same way by the
4-regular case.  Debts are cleared when their vertex leaves the working
graph, and tau when a component loses its last degree-3 vertex or is
accepted.  Every recorded step charge must be non-negative; a violation
raises NegativeCharge.

The ledger runs in integers: every charge, debt, cap and tau is kept
times L, the least common multiple of the parameters' denominators
(``ChargeParams.scaled``).  At the paper point L = 46, so an edge unit
is +46, a deleted vertex -240, the caps of degrees 2, 3 and 4 are 46, 9
and 2, and tau is 30.  A value becomes a ``Fraction`` only where it
leaves the run: each ``LedgerEntry.charge``, made once with its entry,
and the numbers in the NegativeCharge and DebtCapExceeded messages.

The next case is found incrementally, not by a rescan of the graph.
A component table keeps, per component, its members, degree counts,
vertices of degree <= 2, debt total, tau flag and residue verdict, and one
``CaseQueue`` holds each vertex and each component that has a case, at
the rank of that case (``_Run._match`` and the two rank functions it
calls are where the case conditions are written); a step updates only
the vertices it touched.  A spanning tree per component
keeps its connectivity: a deletion reads the rows of the deleted
vertex's children when nothing is cut, and when something is, each
part whose search ends reads at most its own rows times the number of
parts (``_Table``).  The walks up the tree that test each edge a search
meets are not bounded that way: on the wheel W_n they take about n^2/2
parent steps.
A component's verdict is inherited across a contraction, read off its
degree counts when it has no vertex of degree <= 2, and otherwise
recomputed by ``certify._reduce`` seeded at those vertices; the engine
reads the working graph's rows and writes none, so the check costs what
it rewrites.
The lockstep tests keep the whole-graph scan this replaced
(``ReferenceRun``) and check that the two agree step by step.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple

from . import certify, lp as lpmod
from .casequeue import CaseQueue
from .errors import DebtCapExceeded, InfeasibleParams, NegativeCharge
from .multigraph import MultiGraph
from .solution import ReductionSolution, drive, take

PREPROCESS = "Preprocess"
DEG2_CONTRACT = "Deg2Contract"
PLANAR_ACCEPT = "PlanarAccept"
THREE_REG_DELETE = "ThreeRegularDelete"
DEG5_DELETE = "Deg5Delete"
MIXED_DELETE = "MixedDelete"
FOUR_REG_DELETE = "FourRegularDelete"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ScaledParams:
    """A parameter set in the ledger's integer units: each quantity times
    ``unit``, the L of the module docstring, so one edge unit is ``unit``."""

    unit: int
    delete: int  # 5 + epsilon: what one deleted vertex costs
    tau: int
    caps: tuple[int, ...]  # the credit limit by degree 0-4; 0 from degree 5

    def cap(self, degree: int) -> int:
        return self.caps[degree] if degree < len(self.caps) else 0


@dataclass(frozen=True)
class ChargeParams:
    """Credit limits and the amortization margin; the limit at degree 2
    and below is 1, fixed by the analysis.

    The fields are exact rationals, as parsed and validated; the ledger
    reads them as integers times L through ``scaled``, which each
    parameter set computes once.
    """

    epsilon: Fraction
    c3: Fraction
    c4: Fraction
    tau: Fraction

    def cap(self, degree: int) -> Fraction:
        """Credit limit by current degree; degrees below 2 share degree 2's."""
        if degree <= 2:
            return Fraction(1)
        if degree == 3:
            return self.c3
        if degree == 4:
            return self.c4
        return _ZERO

    @functools.cached_property
    def scaled(self) -> ScaledParams:
        """These parameters times L, the least common multiple of their
        denominators; integer arithmetic only, so each product is exact."""
        fields = (self.epsilon, self.c3, self.c4, self.tau)
        unit = math.lcm(*(x.denominator for x in fields))

        def up(x: Fraction) -> int:
            return x.numerator * (unit // x.denominator)

        return ScaledParams(unit, 5 * unit + up(self.epsilon), up(self.tau),
                            (unit, unit, unit, up(self.c3), up(self.c4)))

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.epsilon, self.c3, self.c4, self.tau))

    def __hash__(self) -> int:
        """The fields' hash, computed once per instance: every run looks its
        parameters up in ``_violation``'s cache, and hashing four
        ``Fraction``s each time cost most of that lookup."""
        return self._hash

    def as_assignment(self) -> dict[str, Fraction]:
        return {"epsilon": self.epsilon, "c3": self.c3, "c4": self.c4, "tau": self.tau}

    def validate(self) -> None:
        problem = _violation(self)
        if problem is not None:
            raise InfeasibleParams(problem)

    @staticmethod
    @functools.cache
    def paper() -> "ChargeParams":
        """The paper's point, one shared instance: its validation and its
        ``scaled`` are computed once per process, not once per run."""
        pt = lpmod.paper_point()
        return ChargeParams(pt["epsilon"], pt["c3"], pt["c4"], pt["tau"])

    @staticmethod
    def parse(text: str) -> "ChargeParams":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise InfeasibleParams("expected 'epsilon,c3,c4,tau' as p/q rationals")
        e, c3, c4, tau = (lpmod.rational(p) for p in parts)
        return ChargeParams(e, c3, c4, tau)


@functools.lru_cache(maxsize=32)
def _violation(params: ChargeParams) -> str | None:
    """Why ``params`` is infeasible, or None.  Memoized per value, since
    every ``reduce_planar`` call validates its parameters and the check
    rebuilds the whole LP."""
    rows = lpmod.check_feasible(lpmod.default_lp(), params.as_assignment())
    bad = [r for r in rows if not r.satisfied]
    if bad:
        names = ", ".join(f"{r.name} (slack {lpmod.format_rational(r.slack)})" for r in bad)
        return f"charge parameters violate: {names}"
    return None


class LedgerEntry(NamedTuple):
    """One step's recorded charge, in the paper's units: the step's index
    in the trace, its label and its charge.  Immutable, as the step is."""

    index: int
    label: str
    charge: Fraction


@dataclass
class LedgerState:
    """Per-vertex debts and recorded charges; the tau flags live on the
    run's components.

    ``debt`` holds integers times L (``params.scaled.unit``).  Each entry
    holds its charge as the exact ``Fraction``, so ``entries`` and
    ``min_charge`` read in the paper's units.  A negative charge raises
    NegativeCharge once its entry is made, so only the last entry can be
    negative.
    """

    params: ChargeParams
    debt: dict[int, int] = field(default_factory=dict)
    entries: list[LedgerEntry] = field(default_factory=list)

    def min_charge(self) -> Fraction | None:
        if not self.entries:
            return None
        return min(e.charge for e in self.entries)

    def audit_caps(self, g: MultiGraph, vertices: Iterable[int]) -> None:
        """The debt of each of the vertices that holds one lies in
        [0, cap of its degree]; pass ``debt`` itself to check them all."""
        debt = self.debt
        scaled = self.params.scaled
        for v in vertices:
            d = debt.get(v)
            if d is None:
                continue
            degree = g.degree(v)
            if d < 0 or d > scaled.cap(degree):
                raise DebtCapExceeded(
                    f"debt {Fraction(d, scaled.unit)} on vertex {v} outside "
                    f"[0, {self.params.cap(degree)}] at degree {degree}"
                )


@dataclass(eq=False, slots=True)
class _Comp:
    """One component of the working graph.

    ``heap`` holds its members as a lazy min-heap (an entry counts while
    the table maps the vertex to this id); ``degrees`` counts its members
    by degree (a plain dict with no zero entries), ``low`` is its members
    of degree <= 2, ``debt`` the sum of their debts (times L), ``tau`` its
    tau flag, and ``acceptable`` whether its residue is a legal output
    core.  ``root`` is the one member
    without a parent in the table's spanning tree.
    """

    id: int
    heap: list[int]
    root: int = -1
    size: int = 0
    degrees: dict[int, int] = field(default_factory=dict)
    low: set[int] = field(default_factory=set)
    debt: int = 0
    tau: bool = False
    acceptable: bool = False


class _Table:
    """The component table: the component of each working vertex and the
    records above, updated only at the vertices a step touched.

    Connectivity is kept by a spanning tree of each component: every
    member but the record's root has a parent ``up[v]``, a neighbour, and
    following parents from any member ends at the root.  A contraction
    keeps the tree (``contract``).  A deletion cuts the tree into parts:
    a subtree under each child of the deleted vertex and, when the root
    survives, the root's part.  Each part is searched breadth first down
    the tree for an edge that leaves it, which an edge does when the
    parents from its far end end elsewhere (``_top``), and is hung from
    the first one found (``_hunt``).  A part whose search runs dry is a
    component cut off.  The searches take one row each per round, the
    children's first and the root's last, and stop when one is left, so
    most deletions read the rows of the children, and a part that is cut
    off or settles, the root's included, reads at most its own rows times
    the number of parts (Even and Shiloach).  That bounds the rows, not
    the ``_top`` walks, which climb the parts hung so far: on the wheel
    W_n, whose tree hangs nearly every rim vertex from the hub, deleting
    the hub takes about n^2/2 parent steps.

    ``split_work`` counts rows read: by the searches and by planting a
    tree.  ``walked`` counts the parent steps ``_top`` takes.  Both are
    work counters, independent of the host.
    """

    def __init__(self, g: MultiGraph, debt: dict[int, int]) -> None:
        self.degree = g.degree_map()  # live: the graph's degrees now
        self.adj = g.adjacency_map()
        self.debt = debt
        self.comps: dict[int, _Comp] = {}
        self.comp_of: dict[int, int] = {}
        self.deg: dict[int, int] = {}  # each vertex's degree as counted in its record
        self.up: dict[int, int] = {}  # each member's parent, but a root's
        self.split_work = 0
        self.walked = 0
        self._ids = itertools.count()  # never reused, so stale heap entries stay stale
        # In decreasing order, the first vertex met of each component is
        # its largest member, and one search both finds the component and
        # plants its tree there: the reducer takes its anchors least first,
        # so the largest member makes a root that is seldom deleted.
        for root in sorted(self.adj, reverse=True):
            if root not in self.comp_of:
                c = self._new(sorted(self._tree(root)))
                c.root = root
                self.split_work += c.size

    def _new(self, members: list[int], source: _Comp | None = None) -> _Comp:
        """A record for members, moved out of ``source`` when given."""
        c = _Comp(next(self._ids), sorted(members))  # a sorted list is a heap
        self.comps[c.id] = c
        for v in members:
            self._join(c, v, self.degree[v] if source is None else self._leave(source, v))
        return c

    def _tree(self, root: int) -> list[int]:
        """Set the parents of a breadth-first tree from root over its
        component; return the component, in the order found."""
        adj, up = self.adj, self.up
        up.pop(root, None)
        seen = {root}
        found = [root]
        for x in found:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    up[y] = x
                    found.append(y)
        return found

    def _join(self, c: _Comp, v: int, d: int) -> None:
        self.comp_of[v] = c.id
        self.deg[v] = d
        c.size += 1
        degrees = c.degrees
        degrees[d] = degrees.get(d, 0) + 1
        if d <= 2:
            c.low.add(v)
        debt = self.debt.get(v)
        if debt:
            c.debt += debt

    def _leave(self, c: _Comp, v: int) -> int:
        d = self.deg.pop(v)
        del self.comp_of[v]
        c.size -= 1
        _uncount(c.degrees, d)
        if d <= 2:
            c.low.discard(v)
        debt = self.debt.get(v)
        if debt:
            c.debt -= debt
        return d

    def of(self, v: int) -> _Comp:
        return self.comps[self.comp_of[v]]

    def remove(self, v: int) -> None:
        """Drop v from its record and its tree; its debt, still in the
        ledger, leaves the record's total."""
        c = self.comps[self.comp_of[v]]
        self._leave(c, v)
        self.up.pop(v, None)
        if c.root == v:
            c.root = -1
        if not c.size:
            del self.comps[c.id]

    def refresh(self, v: int) -> None:
        """Recount v under its current degree, in place: only its record's
        degree counts and ``low`` move.  No planar step raises a degree (a
        contraction at a degree-<=2 vertex, then the merge, keeps or drops
        the degrees it touches), so v can only join ``low``."""
        d = self.degree[v]
        old = self.deg[v]
        if d != old:
            self.deg[v] = d
            c = self.comps[self.comp_of[v]]
            degrees = c.degrees
            _uncount(degrees, old)
            degrees[d] = degrees.get(d, 0) + 1
            if d <= 2 < old:
                c.low.add(v)

    def min_member(self, c: _Comp) -> int:
        heap = c.heap
        while self.comp_of.get(heap[0]) != c.id:
            heapq.heappop(heap)
        return heap[0]

    def members(self, c: _Comp) -> list[int]:
        return sorted(v for v in c.heap if self.comp_of.get(v) == c.id)

    def children(self, x: int) -> list[int]:
        """The neighbours whose parent is x; read before x goes."""
        up = self.up
        return [y for y in self.adj[x] if up.get(y) == x]

    def contract(self, v: int, u: int) -> None:
        """Before v, of degree at most 2, is contracted into u: u takes v's
        place in the tree when v is the root or u's parent, and v's other
        children become u's.  Otherwise v is u's child, or v's one other
        neighbour is its parent and v is a leaf; either way its children
        may hang from u.  Connectivity does not change."""
        up = self.up
        parent = up.pop(v, None)
        if parent is None:  # v is the root
            up.pop(u, None)
            self.of(v).root = u
        elif up.get(u) == v:
            up[u] = parent
        for y in self.adj[v]:
            if up.get(y) == v:
                up[y] = u

    def _top(self, v: int) -> int:
        """Where v's parents end: at its record's root, or at the top of a
        subtree a deletion cut off."""
        up = self.up
        while v in up:
            v = up[v]
            self.walked += 1
        return v

    def split(self, c: _Comp, orphans: list[int]) -> list[_Comp]:
        """The components left of c after a deletion, given the deleted
        vertex's children.  Each child's subtree and, when the root
        survives, the root's part are searched round robin, the root's
        last, until one search is left; c keeps that search's part, and
        each part cut off moves to a new record."""
        if not c.size:
            return []
        up, comp_of = self.up, self.comp_of
        tops = [o for o in orphans if o in comp_of]
        for o in tops:
            del up[o]
        if c.root >= 0:
            tops.append(c.root)
        if len(tops) == 1:  # one part, so nothing to search
            c.root = tops[0]
            return [c]
        # Each search: its top, the queue of members whose rows are still
        # to read, and the members found so far.
        hunts = {o: (deque([o]), [o]) for o in tops}
        parts: list[_Comp] = []
        while len(hunts) > 1:
            for o in tops:
                if o in hunts:
                    self._hunt(c, o, hunts, parts)
                    if len(hunts) == 1:
                        break
        (c.root,) = hunts
        return [c] + parts

    def _hunt(self, c: _Comp, o: int, hunts: dict, parts: list[_Comp]) -> None:
        """Read the next row of o's part, a cut subtree or the root's:
        queue the children, and hang the part from the first edge that
        leaves it.  When the queue runs dry the part is a component,
        which moves to a new record."""
        up, adj = self.up, self.adj
        queue, found = hunts[o]
        y = queue.popleft()
        self.split_work += 1
        parent = up.get(y)
        for z in adj[y]:
            if z == parent:
                continue
            if up.get(z) == y:
                queue.append(z)
                found.append(z)
                continue
            if self._top(z) == o:
                continue
            # Hang o's part from z: reverse the parents from y up to o.
            # z lies in another part, a cut subtree or the root's, whose
            # search is still running and has not read z's row, or it
            # would have hung itself here; so it will find o's part below z.
            del hunts[o]
            while y != o:
                up[y], z, y = z, y, up[y]
            up[o] = z
            return
        if not queue:
            del hunts[o]
            d = self._new(found, c)
            d.root = o
            parts.append(d)


def _uncount(degrees: dict[int, int], d: int) -> None:
    """Take one member of degree d off the counts, leaving no zero entry."""
    k = degrees[d]
    if k == 1:
        del degrees[d]
    else:
        degrees[d] = k - 1


# Ranks are positions in this table: the case priority of the module
# docstring.  Ranks 0, 3 and 6 are component cases, the others vertex cases.
_LABELS = (PLANAR_ACCEPT, PREPROCESS, DEG2_CONTRACT, THREE_REG_DELETE,
           DEG5_DELETE, MIXED_DELETE, FOUR_REG_DELETE)

# The rank of a vertex case by degree below 6, where degree alone decides:
# contraction at degree 1 and 2, deletion at 5.  Degree 4 is the mixed
# case's, decided by the neighbours; degree 6 and above is deletion, rank 1.
_DEGREE_RANK = (None, 2, 2, None, None, 4)


class _Run:
    """One reduction: the working graph, the ledger, the component table
    and the case queue.

    A vertex v is queued as (v, -1) and a component as (smallest member,
    id), each at the exact rank of its case, and not at all without one.
    A rank can fall only where a step changed something: every vertex
    whose degree or neighbourhood a step changed is queued again, with
    the neighbours of those left at degree 3 (the mixed case), and every
    component the step left behind is assessed again.

    ``matched`` counts the ``_match`` calls and ``pushed`` the queue
    pushes: work counters, independent of the host, like pseudoforest's.
    ``table.split_work`` and ``table.walked`` count what keeping the
    components connected costs.
    """

    def __init__(self, g: MultiGraph, params: ChargeParams) -> None:
        self.g = g
        self.degree = g.degree_map()  # live, read-only; bound once per run
        self.adj = g.adjacency_map()
        self.params = params
        self.scaled = params.scaled
        self.ledger = LedgerState(params)
        self.sol = ReductionSolution("planar", g.n, g.m, set(), bound_num=23, bound_den=120)
        self.table = _Table(g, self.ledger.debt)
        self.queue = CaseQueue()
        self.matched = 0
        self.pushed = 0
        self._push_all(g.vertices())
        for c in list(self.table.comps.values()):
            self._assess(c)

    # -- the cases -----------------------------------------------------

    def _vertex_rank(self, v: int) -> int | None:
        degree = self.degree
        d = degree[v]
        if d == 4:
            for u in self.adj[v]:
                if degree[u] == 3:
                    return 5
            return None
        return _DEGREE_RANK[d] if d < 6 else 1

    def _comp_rank(self, c: _Comp) -> int | None:
        if c.acceptable and self._acceptance_charge(c) >= 0:
            return 0
        degrees = c.degrees
        if degrees.get(3) == c.size:
            return 3
        if degrees.get(4) == c.size:
            return 6
        return None

    def _match(self, anchor: tuple[int, int]) -> tuple[int, _Comp | None] | None:
        """(rank, component or None) of the case at a queued anchor."""
        self.matched += 1
        v, cid = anchor
        if cid < 0:
            rank = self._vertex_rank(v) if v in self.degree else None
            return None if rank is None else (rank, None)
        c = self.table.comps.get(cid)
        if c is None or self.table.min_member(c) != v:
            return None
        rank = self._comp_rank(c)
        return None if rank is None else (rank, c)

    def _push_all(self, vs: Iterable[int]) -> None:
        """Queue each vertex of vs at the rank of its case, if it has one."""
        rank = self._vertex_rank
        entries = [(r, (v, -1)) for v in vs if (r := rank(v)) is not None]
        self.pushed += len(entries)
        self.queue.push_all(entries)

    def _touched(self, vs) -> None:
        """Recount and re-queue the surviving vertices of vs, and the
        neighbours of those at degree 3, which may now meet the mixed case."""
        degree, adj, refresh = self.degree, self.adj, self.table.refresh
        queued = []
        for v in vs:
            if v not in degree:
                continue
            refresh(v)
            queued.append(v)
            if degree[v] == 3:
                queued += adj[v]
        self._push_all(queued)

    def _residue_ok(self, c: _Comp) -> bool:
        """accepts_planar_residue on the component alone.  Only its
        degree-<=2 vertices are reducible, so ``_reduce`` runs from those,
        and its deletion log has one entry per vertex deleted; the rules
        keep the component connected, so its residue is what is left of
        it, and that residue is simple with minimum degree 3, so four
        vertices make a K4."""
        left = c.size
        if c.low:
            left -= len(certify._reduce(self.adj, c.low)[1])
        return left in (0, 4)

    def _assess(self, c: _Comp, inherit: bool = False) -> None:
        """Renew c's verdict (kept with ``inherit``) and queue c at the
        rank of its case."""
        if not inherit:
            c.acceptable = self._residue_ok(c)
        rank = self._comp_rank(c)
        if rank is not None:
            self.pushed += 1
            self.queue.push((self.table.min_member(c), c.id), rank)

    # -- ledger plumbing ---------------------------------------------

    def _greedy_raise(self, base: int, dropped: dict[int, int]) -> int:
        """Issue just enough debt to make the step solvent (times L).

        Survivors whose degree dropped this step are raised toward the
        cap of their new degree in id order (the order of ``dropped``,
        which maps them to their degrees before the step); the last raise
        is partial, so no more debt is borrowed than the step needs.
        """
        degree = self.degree
        debt = self.ledger.debt
        charge = base
        for v in dropped:
            if charge >= 0:
                break
            post = degree.get(v)
            if post is not None and 1 <= post < dropped[v]:
                cap = self.scaled.cap(post)
                cur = debt.get(v, 0)
                if cur < cap:
                    raise_by = min(cap - cur, -charge)
                    charge += raise_by
                    debt[v] = cur + raise_by
                    self.table.of(v).debt += raise_by
        return charge

    # -- the step --------------------------------------------------------

    def _take(self, label: str, comp: _Comp, deleted: tuple[int, ...] = (),
              contracted: tuple[tuple[int, int, int], ...] = (), accepted: Iterable[int] = ()) -> None:
        """Take one step in ``comp`` with ``solution.take``: delete one
        vertex x, contract one edge (x, u, u) and simplify at u, or accept
        a whole component.  When x goes, every watched vertex left at
        degree 0 is accepted with it.  Then split or keep ``comp``, charge
        the step, issue debt (and on the 4-regular case tau) if it runs
        short, all times L, and enter the charge in the ledger as a
        ``Fraction``.  A negative charge raises NegativeCharge, after the
        step is in the trace.

        The watched vertices are x's neighbours (the working graph is
        simple, so x is not among them): the only vertices whose degree
        can drop.  Contracting x into u moves x's edges to u, so u's other
        neighbours keep theirs; an accepted component watches none.
        """
        g = self.g
        table = self.table
        flagged = comp.tau
        orphans: list[int] = []
        pre_deg: dict[int, int] = {}
        if not accepted:
            if deleted:
                (x,) = deleted
                orphans = table.children(x)
            else:
                ((x, u, _),) = contracted
                table.contract(x, u)
            degree = self.degree
            pre_deg = {y: degree[y] for y in sorted(self.adj[x])}
            # Read lazily: a vertex is isolated only after the contraction.
            accepted = (y for y in pre_deg if degree[y] == 0)
        step = take(g, self.sol, label, deleted, contracted, accepted, simplify=True)

        # A vertex that left takes its debt off its record's total
        # (``_Table.remove`` reads only the record) and out of the ledger.
        debt = self.ledger.debt
        remove = table.remove
        cleared = 0
        for v in step.deleted + step.s_added:
            remove(v)
            cleared += debt.pop(v, 0)

        self._touched(pre_deg)
        if deleted:
            children = table.split(comp, orphans)
        else:
            # Contracting at a degree-<=2 vertex and merging the parallel
            # copy is one of the residue rules, so the verdict stands.
            children = [comp] if comp.size else []
        # A flagged component's tau passes to its children that keep a
        # degree-3 vertex, and is cleared when none does.
        kids3 = [c for c in children if 3 in c.degrees]
        if flagged:
            for c in children:
                c.tau = 3 in c.degrees

        # +1 per edge unit, -(5+epsilon) per deleted vertex, less the
        # debts and the tau the step clears; all times L.
        scaled = self.scaled
        charge = step.removed_edges * scaled.unit - scaled.delete * len(deleted) - cleared
        if flagged and not kids3:
            charge -= scaled.tau
        if charge < 0:
            charge = self._greedy_raise(charge, pre_deg)
        if charge < 0 and label == FOUR_REG_DELETE and kids3:
            charge += scaled.tau
            for c in kids3:
                c.tau = True

        entry = LedgerEntry(len(self.sol.trace) - 1, label, Fraction(charge, scaled.unit))
        self.ledger.entries.append(entry)
        if charge < 0:
            raise NegativeCharge(f"step {entry.index} ({label}) charged {entry.charge}")
        # Only the vertices whose degree or debt changed can break a cap;
        # of those that left, none holds a debt now.
        self.ledger.audit_caps(g, pre_deg)
        for c in children:
            self._assess(c, inherit=not deleted)

    # -- the next case --------------------------------------------------

    def _acceptance_charge(self, c: _Comp) -> int:
        """What accepting c would charge, times L."""
        degrees = c.degrees
        units = sum(map(mul, degrees, degrees.values())) // 2
        return units * self.scaled.unit - c.debt - (self.scaled.tau if c.tau else 0)

    def step(self) -> bool:
        """Perform the least (rank, anchor) case; False once no case is
        left.  Keeping a whole component is always at least as large as
        reducing it further, so acceptance comes first."""
        found = self.queue.pop(self._match)
        if found is None:
            return False
        rank, (v, _), comp = found
        label = _LABELS[rank]
        comp = comp or self.table.of(v)  # the component of a vertex case
        if label == PLANAR_ACCEPT:
            self._take(label, comp, accepted=self.table.members(comp))
        elif label == DEG2_CONTRACT:
            u = min(self.adj[v])  # the working graph is simple
            self._take(label, comp, contracted=((v, u, u),))
        else:
            self._take(label, comp, deleted=(v,))
        return True


def reduce_planar(g_in: MultiGraph, params: ChargeParams | None = None) -> tuple[ReductionSolution, LedgerState]:
    """Compute S with 120 |S| >= 120 n - 23 m, G_in[S] planar with
    treewidth <= 3, and a per-step charge ledger.  A negative step charge
    raises NegativeCharge.  The parameters are validated after the input
    check, so a graph that is not simple fails first.
    """
    if params is None:
        params = ChargeParams.paper()

    def start(g: MultiGraph) -> _Run:
        params.validate()
        return _Run(g, params)

    run = drive(g_in, start)
    return run.sol, run.ledger
