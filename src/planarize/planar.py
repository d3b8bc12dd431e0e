"""Planar (treewidth <= 3) reducer with a step-exact charge ledger.

Case priority: accept whole any component whose contraction residue is
already a legal output core (K4, the dipole, cycles, trees, and their
cycle-gluings) when its edge units cover the debts being settled; then
delete a vertex of degree 6 or more; harvest isolated vertices; contract
an edge at a degree-<=2 vertex (vertex to S, then simplify, so the
working graph stays simple); delete a vertex of a 3-regular component;
delete a degree-5 vertex; delete a degree-4 vertex adjacent to a
degree-3 vertex; delete a vertex of a 4-regular component.  Vertices a
step isolates join S inside that step.

The ledger replays the amortized analysis exactly: every removed edge
unit is +1 and every deleted vertex -(5+epsilon).  Debts are issued
lazily: when a step would otherwise go negative, vertices whose degree
dropped in that step are raised toward the credit cap of their new
degree, in id order, until the step is solvent; the whole-component
debt tau is issued the same way by the 4-regular case.  Debts are
cleared when their vertex leaves the working graph, and tau when a
component loses its last degree-3 vertex or is accepted.  Every
recorded step charge must be non-negative; a violation raises
NegativeCharge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import certify, lp as lpmod
from .errors import CaseAnalysisIncomplete, DebtCapExceeded, InfeasibleParams, NegativeCharge
from .multigraph import MultiGraph
from .solution import ReductionSolution, TraceStep, check_result, require_simple

PREPROCESS = "Preprocess"
HARVEST = "HarvestIsolated"
DEG2_CONTRACT = "Deg2Contract"
PLANAR_ACCEPT = "PlanarAccept"
THREE_REG_DELETE = "ThreeRegularDelete"
DEG5_DELETE = "Deg5Delete"
MIXED_DELETE = "MixedDelete"
FOUR_REG_DELETE = "FourRegularDelete"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ChargeParams:
    """Credit limits and the amortization margin; c2 is pinned to 1."""

    epsilon: Fraction
    c3: Fraction
    c4: Fraction
    tau: Fraction

    c2: Fraction = _ONE

    @property
    def delta2(self) -> Fraction:
        return self.c2 - self.c3

    @property
    def delta3(self) -> Fraction:
        return self.c3 - self.c4

    @property
    def delta4(self) -> Fraction:
        return self.c4

    def cap(self, degree: int) -> Fraction:
        """Credit limit by current degree; degrees below 2 share c2."""
        if degree <= 2:
            return self.c2
        if degree == 3:
            return self.c3
        if degree == 4:
            return self.c4
        return _ZERO

    def as_assignment(self) -> dict[str, Fraction]:
        return {"epsilon": self.epsilon, "c3": self.c3, "c4": self.c4, "tau": self.tau}

    def validate(self) -> None:
        if self.c2 != 1:
            raise InfeasibleParams("c2 is pinned to 1 by the analysis")
        rows = lpmod.check_feasible(lpmod.default_lp(), self.as_assignment())
        bad = [r for r in rows if not r.satisfied]
        if bad:
            names = ", ".join(f"{r.name} (slack {lpmod.format_rational(r.slack)})" for r in bad)
            raise InfeasibleParams(f"charge parameters violate: {names}")

    @staticmethod
    def paper() -> "ChargeParams":
        pt = lpmod.paper_point()
        return ChargeParams(pt["epsilon"], pt["c3"], pt["c4"], pt["tau"])

    @staticmethod
    def parse(text: str) -> "ChargeParams":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise InfeasibleParams("expected 'epsilon,c3,c4,tau' as p/q rationals")
        e, c3, c4, tau = (lpmod.rational(p) for p in parts)
        return ChargeParams(e, c3, c4, tau)


@dataclass(frozen=True)
class LedgerEntry:
    index: int
    label: str
    charge: Fraction


@dataclass
class LedgerState:
    """Per-vertex debts, per-component tau flags, and recorded charges."""

    params: ChargeParams
    debt: dict[int, Fraction] = field(default_factory=dict)
    flagged: list[set[int]] = field(default_factory=list)
    entries: list[LedgerEntry] = field(default_factory=list)
    negative_steps: list[LedgerEntry] = field(default_factory=list)

    def min_charge(self) -> Fraction | None:
        if not self.entries:
            return None
        return min(e.charge for e in self.entries)

    def audit_caps(self, g: MultiGraph) -> None:
        for v, d in self.debt.items():
            cap = self.params.cap(g.degree(v))
            if d < 0 or d > cap:
                raise DebtCapExceeded(
                    f"debt {d} on vertex {v} outside [0, {cap}] at degree {g.degree(v)}"
                )

    def flag_index(self, comp: set[int]) -> int | None:
        for i, f in enumerate(self.flagged):
            if f & comp:
                return i
        return None


def _acceptable_component(g: MultiGraph, comp: list[int]) -> bool:
    """True when the whole component may enter S: its residue is one of
    the legal output cores (K4, dipole, cycles, trees, and their glued
    subdivisions).  Covers the K4 and dipole acceptance cases and every
    degenerate residue a contraction sequence can leave behind."""
    return certify.accepts_planar_residue(certify.induced_subgraph(g, set(comp)))


class _Run:
    def __init__(self, g: MultiGraph, params: ChargeParams, strict: bool) -> None:
        self.g = g
        self.params = params
        self.strict = strict
        self.ledger = LedgerState(params)
        self.sol = ReductionSolution("planar", g.n, g.m, set(), bound_num=23, bound_den=120)

    # -- ledger plumbing ---------------------------------------------

    def _clear_debt(self, v: int) -> Fraction:
        return self.ledger.debt.pop(v, _ZERO)

    def _greedy_raise(self, base: Fraction, dropped: dict[int, int]) -> Fraction:
        """Issue just enough debt to make the step solvent.

        Survivors whose degree dropped this step are raised toward the
        cap of their new degree in id order; the last raise is partial,
        so no more debt is borrowed than the step needs.
        """
        g = self.g
        charge = base
        for v in sorted(dropped):
            if charge >= 0:
                break
            if not g.has_vertex(v):
                continue
            post = g.degree(v)
            if post < dropped[v] and post >= 1:
                cap = self.params.cap(post)
                cur = self.ledger.debt.get(v, _ZERO)
                if cur < cap:
                    raise_by = min(cap - cur, -charge)
                    charge += raise_by
                    self.ledger.debt[v] = cur + raise_by
        return charge

    def _update_tau(self, comp_before: list[int]) -> tuple[int, list[set[int]]]:
        """Re-attach the affected component's tau flag to its children;
        returns (cleared, children_with_degree_3)."""
        g = self.g
        survivors = [x for x in comp_before if g.has_vertex(x)]
        children: list[set[int]] = []
        seen: set[int] = set()
        for x in survivors:
            if x not in seen:
                comp = set(g.component_of(x))
                seen |= comp
                children.append(comp)
        kids3 = [c for c in children if any(g.degree(x) == 3 for x in c)]
        cleared = 0
        idx = self.ledger.flag_index(set(comp_before))
        if idx is not None:
            del self.ledger.flagged[idx]
            if kids3:
                self.ledger.flagged.extend(kids3)
            else:
                cleared = 1
        return cleared, kids3

    def _harvest_isolated(self, among: list[int]) -> tuple[list[int], list[int], Fraction]:
        g = self.g
        accepted: list[int] = []
        origins: list[int] = []
        cleared = _ZERO
        for y in sorted(set(among)):
            if g.has_vertex(y) and g.degree(y) == 0:
                origins.append(g.origin(y))
                cleared += self._clear_debt(y)
                g.delete_vertex(y)
                accepted.append(y)
        return accepted, origins, cleared

    def _record(self, label: str, charge: Fraction, step: TraceStep) -> None:
        entry = LedgerEntry(len(self.sol.trace), label, charge)
        self.ledger.entries.append(entry)
        if charge < 0:
            self.ledger.negative_steps.append(entry)
            if self.strict:
                raise NegativeCharge(f"step {entry.index} ({label}) charged {charge}")
        self.sol.trace.append(step)
        for orig in step.s_added:
            self.sol.s.add(orig)
        self.ledger.audit_caps(self.g)

    # -- step kinds ----------------------------------------------------

    def delete_step(self, label: str, target: int, may_issue_tau: bool = False) -> None:
        g = self.g
        p = self.params
        comp_before = g.component_of(target)
        pre_deg = {y: g.degree(y) for y in g.neighbors(target)}
        cleared = self._clear_debt(target)
        units = g.delete_vertex(target)
        accepted, origins, cleared_harvest = self._harvest_isolated(list(pre_deg))
        tau_cleared, kids3 = self._update_tau(comp_before)
        base = (
            Fraction(units)
            - (5 + p.epsilon)
            - cleared
            - cleared_harvest
            - p.tau * tau_cleared
        )
        charge = self._greedy_raise(base, pre_deg)
        if charge < 0 and may_issue_tau and kids3:
            charge += p.tau
            for c in kids3:
                if self.ledger.flag_index(c) is None:
                    self.ledger.flagged.append(c)
        step = TraceStep(
            label,
            deleted=(target,),
            accepted=tuple(accepted),
            removed_edges=units,
            s_added=tuple(origins),
        )
        self._record(label, charge, step)

    def contract_step(self, v: int) -> None:
        g = self.g
        p = self.params
        comp_before = g.component_of(v)
        u = g.neighbors(v)[0]
        watch = {u} | set(g.neighbors(u)) | set(g.neighbors(v))
        watch.discard(v)
        pre_deg = {y: g.degree(y) for y in watch}
        orig = g.origin(v)
        cleared = self._clear_debt(v)
        g.contract_edge(v, u, u)
        cleaned = g.simplify_at(u)
        units = 1 + cleaned
        accepted, origins, cleared_harvest = self._harvest_isolated(list(watch))
        tau_cleared, _ = self._update_tau(comp_before)
        base = Fraction(units) - cleared - cleared_harvest - p.tau * tau_cleared
        charge = self._greedy_raise(base, pre_deg)
        step = TraceStep(
            DEG2_CONTRACT,
            contracted=((v, u, u),),
            accepted=tuple(accepted),
            removed_edges=units,
            s_added=(orig,) + tuple(origins),
            simplified=True,
        )
        self._record(DEG2_CONTRACT, charge, step)

    def accept_step(self, comp: list[int]) -> None:
        g = self.g
        p = self.params
        origins = [g.origin(v) for v in comp]
        cleared = _ZERO
        units = 0
        for v in comp:
            cleared += self._clear_debt(v)
            units += g.delete_vertex(v)
        tau_cleared, _ = self._update_tau(comp)
        charge = Fraction(units) - cleared - p.tau * tau_cleared
        step = TraceStep(
            PLANAR_ACCEPT,
            accepted=tuple(comp),
            removed_edges=units,
            s_added=tuple(origins),
        )
        self._record(PLANAR_ACCEPT, charge, step)

    def harvest_step(self, v: int) -> None:
        g = self.g
        orig = g.origin(v)
        cleared = self._clear_debt(v)
        g.delete_vertex(v)
        step = TraceStep(HARVEST, accepted=(v,), s_added=(orig,))
        self._record(HARVEST, -cleared, step)

    # -- dispatch -------------------------------------------------------

    def _acceptance_charge(self, comp: list[int]) -> Fraction:
        g = self.g
        cset = set(comp)
        units = sum(c for u, v, c in g.iter_edges() if u in cset)
        debts = sum((self.ledger.debt.get(v, _ZERO) for v in comp), _ZERO)
        flagged = self.ledger.flag_index(cset) is not None
        return Fraction(units) - debts - (self.params.tau if flagged else _ZERO)

    def dispatch(self) -> bool:
        """Perform one step; False when the graph is empty."""
        g = self.g
        if g.n == 0:
            return False

        # Whole-component acceptance first: any component whose residue
        # is already a legal output core joins S outright, provided its
        # own edge units cover the debts being settled.  Keeping a whole
        # component is always at least as large as reducing it further.
        comps = g.components()
        for comp in comps:
            if _acceptable_component(g, comp) and self._acceptance_charge(comp) >= 0:
                self.accept_step(comp)
                return True

        high = [v for v in g.sorted_vertices() if g.degree(v) >= 6]
        if high:
            self.delete_step(PREPROCESS, high[0])
            return True

        isolated = [v for v in g.sorted_vertices() if g.degree(v) == 0]
        if isolated:
            self.harvest_step(isolated[0])
            return True

        contractible = [
            v
            for v in g.sorted_vertices()
            if g.degree(v) == 1 or (g.degree(v) == 2 and g.loops(v) == 0)
        ]
        if contractible:
            self.contract_step(contractible[0])
            return True

        for comp in comps:
            if all(g.degree(v) == 3 for v in comp):
                self.delete_step(THREE_REG_DELETE, comp[0])
                return True

        deg5 = [v for v in g.sorted_vertices() if g.degree(v) == 5]
        if deg5:
            self.delete_step(DEG5_DELETE, deg5[0])
            return True

        mixed = [
            v
            for v in g.sorted_vertices()
            if g.degree(v) == 4 and any(g.degree(u) == 3 for u in g.neighbors(v))
        ]
        if mixed:
            self.delete_step(MIXED_DELETE, mixed[0])
            return True

        for comp in comps:
            if all(g.degree(v) == 4 for v in comp):
                self.delete_step(FOUR_REG_DELETE, comp[0], may_issue_tau=True)
                return True

        raise CaseAnalysisIncomplete(
            f"planar reducer stalled with n={g.n}, m={g.m}, "
            f"degrees={sorted(g.degree(v) for v in g.vertices())}"
        )


def reduce_planar(
    g_in: MultiGraph,
    params: ChargeParams | None = None,
    strict: bool = True,
) -> tuple[ReductionSolution, LedgerState]:
    """Compute S with 120 |S| >= 120 n - 23 m, G_in[S] planar with
    treewidth <= 3, and a per-step charge ledger.

    With ``strict`` (the default) any negative step charge raises
    NegativeCharge immediately; otherwise violations are collected in
    the ledger's ``negative_steps`` for diagnosis.
    """
    require_simple(g_in)
    if params is None:
        params = ChargeParams.paper()
    params.validate()
    run = _Run(g_in.copy(), params, strict)
    while run.dispatch():
        pass
    return check_result(run.sol), run.ledger
