"""The incremental planar dispatcher against the whole-graph scan it replaced.

``ReferenceRun`` is the earlier ``planar._Run``, kept verbatim except that
its tau flags sit on the run itself: every dispatch rebuilds the
components, checks each one with ``accepts_planar_residue`` on its induced
subgraph, sums the acceptance charge over the edge list, and audits every
debt after every step.  The tests drive it in lockstep with the
incremental ``planar._Run`` and compare each trace step, ledger entry,
debt and tau flag (the run keeps its debts as integers times L, the
reference as fractions), and check the facts the incremental dispatcher
relies on: a contraction at a degree-<=2 vertex keeps the residue verdict, and
``certify._reduce`` seeded at a component's degree-<=2 vertices gives the
full verdict, reading only the rows it rewrites.
"""

import importlib.util
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from planarize import certify, generators as gen, planar
from planarize.errors import CaseAnalysisIncomplete, DebtCapExceeded, NegativeCharge
from planarize.multigraph import MultiGraph, from_edge_list
from planarize.planar import (
    DEG2_CONTRACT,
    DEG5_DELETE,
    FOUR_REG_DELETE,
    MIXED_DELETE,
    PLANAR_ACCEPT,
    PREPROCESS,
    THREE_REG_DELETE,
    ChargeParams,
    LedgerEntry,
    LedgerState,
)
from planarize.solution import ReductionSolution, TraceStep
from test_casequeue import check_invariant

_ZERO = Fraction(0)
# A feasible point other than the paper's, with its own L = 4: the point
# ``test_cli.py::test_reduce_with_custom_params`` reduces with.
QUARTER = ChargeParams.parse("0,1/4,0,1")
# The scan's label for its degree-0 case, which ``planar`` no longer has:
# the component of an isolated vertex is always accepted first.
HARVEST = "HarvestIsolated"


def _acceptable_component(g: MultiGraph, comp: list[int]) -> bool:
    """True when the whole component may enter S: its residue is one of
    the legal output cores (K4, dipole, cycles, trees, and their glued
    subdivisions).  Covers the K4 and dipole acceptance cases and every
    degenerate residue a contraction sequence can leave behind."""
    return certify.accepts_planar_residue(certify.induced_subgraph(g, set(comp)))


class ReferenceRun:
    def __init__(self, g: MultiGraph, params: ChargeParams) -> None:
        self.g = g
        self.params = params
        self.ledger = LedgerState(params)
        self.sol = ReductionSolution("planar", g.n, g.m, set(), bound_num=23, bound_den=120)
        self.flagged: list[set[int]] = []

    def _flag_index(self, comp: set[int]) -> int | None:
        for i, f in enumerate(self.flagged):
            if f & comp:
                return i
        return None

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
        idx = self._flag_index(set(comp_before))
        if idx is not None:
            del self.flagged[idx]
            if kids3:
                self.flagged.extend(kids3)
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
                origins.append(y)
                cleared += self._clear_debt(y)
                g.delete_vertex(y)
                accepted.append(y)
        return accepted, origins, cleared

    def _record(self, label: str, charge: Fraction, step: TraceStep) -> None:
        entry = LedgerEntry(len(self.sol.trace), label, charge)
        self.ledger.entries.append(entry)
        if charge < 0:
            raise NegativeCharge(f"step {entry.index} ({label}) charged {charge}")
        self.sol.trace.append(step)
        for orig in step.s_added:
            self.sol.s.add(orig)
        self.audit_caps()

    def audit_caps(self) -> None:
        """Each debt lies in [0, cap of its vertex's degree], in the
        paper's units: the reference keeps its debts as fractions, so it
        reads the caps from ``ChargeParams.cap``, not the run's caps
        times L."""
        for v, d in self.ledger.debt.items():
            degree = self.g.degree(v)
            cap = self.params.cap(degree)
            if not 0 <= d <= cap:
                raise DebtCapExceeded(f"debt {d} on vertex {v} outside [0, {cap}] at degree {degree}")

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
                if self._flag_index(c) is None:
                    self.flagged.append(c)
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
        orig = v
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
            s_added=tuple(comp),
        )
        self._record(PLANAR_ACCEPT, charge, step)

    def harvest_step(self, v: int) -> None:
        g = self.g
        orig = v
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
        flagged = self._flag_index(cset) is not None
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



def _lockstep(g: MultiGraph, params: ChargeParams | None = None,
              check_table: bool = False) -> planar._Run:
    """Run both dispatchers step by step on copies of g and compare them.
    When the reference raises NegativeCharge, the run must raise the same
    message at the same step; it is returned then, its last ledger entry
    the negative one."""
    params = params or ChargeParams.paper()
    ref = ReferenceRun(g.copy(), params)
    new = planar._Run(g.copy(), params)
    if check_table:
        _check_table(new)
    while True:
        try:
            more = ref.dispatch()
        except NegativeCharge as exc:
            with pytest.raises(NegativeCharge, match=re.escape(str(exc))):
                new.step()
            return new
        assert new.step() == more
        if not more:
            break
        assert new.sol.trace == ref.sol.trace
        assert new.ledger.entries == ref.ledger.entries
        unit = params.scaled.unit
        assert {v: Fraction(d, unit) for v, d in new.ledger.debt.items()} == ref.ledger.debt
        flags = {frozenset(new.table.members(c)) for c in new.table.comps.values() if c.tau}
        assert flags == {frozenset(f) for f in ref.flagged}
        new.ledger.audit_caps(new.g, new.ledger.debt)
        if check_table:
            _check_table(new)
    assert new.sol.s == ref.sol.s
    return new


def _check_table(run: planar._Run) -> None:
    """The component table agrees with a from-scratch look at the graph."""
    g, table = run.g, run.table
    _check_records(g, table)
    for c in table.comps.values():
        sub = certify.induced_subgraph(g, set(table.members(c)))
        assert c.acceptable == certify.accepts_planar_residue(sub)
    anchors = [(v, -1) for v in g.vertices()]
    anchors += [(table.min_member(c), c.id) for c in table.comps.values()]
    check_invariant(run.queue, anchors, run._match)


def _check_records(g: MultiGraph, table: planar._Table) -> None:
    """Each record holds one component of g with its counts, and its
    spanning tree."""
    assert sorted(table.members(c) for c in table.comps.values()) == g.components()
    for c in table.comps.values():
        members = table.members(c)
        assert table.min_member(c) == members[0]
        assert c.size == len(members)
        assert c.degrees == Counter(g.degree(v) for v in members)
        assert c.low == {v for v in members if g.degree(v) <= 2}
        assert c.debt == sum(table.debt.get(v, 0) for v in members)
    # The spanning trees certify each component: its root alone has no
    # parent, every other member's parent is a neighbour, and following
    # parents from any member reaches its record's root.
    adj = g.adjacency_map()
    assert sorted(c.root for c in table.comps.values()) == sorted(adj.keys() - table.up.keys())
    for v, parent in table.up.items():
        assert parent in adj[v], (v, parent)
    for c in table.comps.values():
        for v in table.members(c):
            path = {v}
            while v in table.up:
                v = table.up[v]
                assert v not in path, "a cycle of parents"
                path.add(v)
            assert v == c.root


def _run_corpus_script():
    """``scripts/run_corpus.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpus_recipe():
    """The ``scripts/run_corpus.py`` recipe (seed 0, 400 graphs) as (tag,
    graph) pairs: the one copy the lockstep tests and the pinned digests
    read."""
    return _run_corpus_script().corpus(0, 400)


def _from_nx(gx) -> MultiGraph:
    return from_edge_list(list(gx.edges()), gx.number_of_nodes())


def test_matches_reference_on_graph_atlas():
    atlas = nx.graph_atlas_g()
    for gx in atlas:
        _lockstep(_from_nx(gx), check_table=True)


def test_matches_reference_on_corpus_recipe():
    labels = Counter()
    for _, g in _corpus_recipe():
        run = _lockstep(g, check_table=True)
        labels.update(step.label for step in run.sol.trace)
    # The corpus reaches the cases whose bookkeeping is the subtlest.
    assert labels[PREPROCESS] and labels[THREE_REG_DELETE] and labels[FOUR_REG_DELETE]
    assert labels[DEG2_CONTRACT] and labels[PLANAR_ACCEPT]


@pytest.mark.parametrize(
    "d, params",
    [(d, None) for d in (3, 4, 5, 6)] + [(d, QUARTER) for d in (3, 4, 5, 6)],
    ids=["3", "4", "5", "6", "3-quarter", "4-quarter", "5-quarter", "6-quarter"],
)
def test_matches_reference_on_random_regular(d, params):
    for n in (12, 40, 150):
        for seed in range(3):
            _lockstep(_from_nx(nx.random_regular_graph(d, n, seed=seed)), params,
                      check_table=n < 150)


def test_matches_reference_on_disjoint_copies():
    for params in (None, QUARTER):
        for t in (1, 3):
            for inner in (gen.complete(5), gen.complete(6), gen.complete_bipartite(3, 3),
                          gen.FIXTURES["petersen"]()):
                _lockstep(gen.disjoint_copies(inner, t), params, check_table=True)


def test_negative_steps_collected_alike():
    # Parameters outside the feasible region drive charges negative; the
    # two dispatchers must raise the same NegativeCharge at the same step.
    harsh = ChargeParams(Fraction(2), Fraction(1, 4), Fraction(0), Fraction(1))
    raised = 0
    for seed in range(30):
        g = _from_nx(nx.gnp_random_graph(12, 0.4, seed=seed))
        low = _lockstep(g, harsh).ledger.min_charge()
        raised += low is not None and low < 0
    assert raised > 0


def _random_connected(rng: random.Random) -> MultiGraph:
    n = rng.randrange(2, 13)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a random spanning tree
    p = rng.choice([0.1, 0.25, 0.4])
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return from_edge_list(edges, n)


def test_reference_audits_caps_in_the_papers_units():
    # A debt of 2 on a degree-2 vertex is twice its cap of 1.  The run's
    # audit reads caps times L (46 at the paper point), so the reference,
    # whose debts are fractions, audits against ChargeParams.cap itself.
    ref = ReferenceRun(gen.cycle(5), ChargeParams.paper())
    ref.ledger.debt[0] = Fraction(1)
    ref.audit_caps()
    ref.ledger.debt[0] = Fraction(2)
    with pytest.raises(DebtCapExceeded, match="^debt 2 on vertex 0 outside \\[0, 1\\] at degree 2$"):
        ref.audit_caps()
    ref.ledger.debt[0] = Fraction(-1, 46)
    with pytest.raises(DebtCapExceeded):
        ref.audit_caps()


def test_contraction_at_low_degree_keeps_the_residue_verdict():
    rng = random.Random(20260418)
    checked = 0
    for _ in range(400):
        g = _random_connected(rng)
        verdict = certify.accepts_planar_residue(g)
        for v in g.sorted_vertices():
            if g.degree(v) > 2:
                continue
            for u in g.neighbors(v):
                h = g.copy()
                h.contract_edge(v, u, u)
                h.simplify_at(u)
                assert certify.accepts_planar_residue(h) == verdict
                checked += 1
    assert checked > 1000


def test_seeded_reduce_matches_full_verdict_on_graph_atlas():
    atlas = nx.graph_atlas_g()
    for gx in atlas:
        g = _from_nx(gx)
        edges = list(g.iter_edges())
        for comp in g.components():
            low = [v for v in comp if g.degree(v) <= 2]
            removed = len(certify._reduce(g.adjacency_map(), low)[1])
            full = certify.accepts_planar_residue(certify.induced_subgraph(g, set(comp)))
            assert (len(comp) - removed in (0, 4)) == full
            assert list(g.iter_edges()) == edges  # the engine left g alone
        run = planar._Run(g.copy(), ChargeParams.paper())
        _check_table(run)


def test_seeded_reduce_costs_only_what_it_rewrites():
    # A 3-vertex path hangs off vertex 0 of K5 x 2000.  Seeded at the
    # path's far end, the engine deletes the path and reads one more row,
    # vertex 0's, however large the graph; it writes nothing to g.
    g = gen.disjoint_copies(gen.complete(5), 2000)
    a, b, c = 10000, 10001, 10002
    for u, v in ((0, a), (a, b), (b, c)):
        g.add_edge(u, v)
    edges = list(g.iter_edges())
    rows, log = certify._reduce(g.adjacency_map(), [c])
    assert log == [(c, (b,), False), (b, (a,), False), (a, (0,), False)]
    assert len(rows) <= 1
    assert list(g.iter_edges()) == edges


@pytest.mark.parametrize("root, kept_root, rows", [(4, 4, 5), (8, 1, 6), (0, 1, 6)])
def test_split_searches_every_part_and_keeps_the_last(root, kept_root, rows):
    # A path of 6 and a triangle hang off vertex 0; deleting 0 cuts them
    # apart.  The tree is planted with its root in the path, in the
    # triangle, and at 0 itself.  Each time the triangle's search, the
    # root's or a child's, runs dry after its 3 rows and moves to a new
    # record.  The path's search is stopped then, after 3 rows, or after
    # 2 when it is the root's, which reads last in each round; it keeps
    # the old record, with the old root when that survives in the path,
    # else with its own top, vertex 1.
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9), (9, 7)])
    table = planar._Table(g, {})
    (c,) = table.comps.values()
    c.root = root
    table._tree(root)
    orphans = table.children(0)
    g.delete_vertex(0)
    table.remove(0)
    for v in (1, 7):
        table.refresh(v)
    before = table.split_work
    kept, cut = table.split(c, orphans)
    assert kept is c and c.root == kept_root
    assert (table.members(kept), table.members(cut)) == ([1, 2, 3, 4, 5, 6], [7, 8, 9])
    assert table.split_work - before == rows
    _check_records(g, table)


def _block_tree(rng: random.Random, n_target: int) -> MultiGraph:
    """Blocks (K5, K6, Petersen, random 4-regular on 10-20 vertices), each
    joined to an earlier one at a shared cut vertex or by a bridge, with
    the vertex ids shuffled: deleting a cut vertex or a bridge's end cuts."""
    edges: list[tuple[int, int]] = []
    n = 0
    blocks: list[list[int]] = []
    while n < n_target:
        kind = rng.randrange(4)
        if kind == 0:
            block = gen.complete(5)
        elif kind == 1:
            block = gen.complete(6)
        elif kind == 2:
            block = gen.FIXTURES["petersen"]()
        else:
            block = _from_nx(nx.random_regular_graph(4, rng.randrange(10, 21, 2), seed=rng.randrange(10**6)))
        ids = {v: n + i for i, v in enumerate(block.sorted_vertices())}
        if blocks and rng.random() < 0.5:  # share a cut vertex with an earlier block
            ids[block.sorted_vertices()[0]] = rng.choice(rng.choice(blocks))
        elif blocks:  # or hang from one by a bridge
            edges.append((rng.choice(rng.choice(blocks)), n))
        edges += [(ids[u], ids[v]) for u, v, _ in block.iter_edges()]
        blocks.append(sorted(set(ids.values())))
        n += block.n
    labels = sorted({v for e in edges for v in e})
    perm = labels[:]
    rng.shuffle(perm)
    relabel = dict(zip(labels, perm))
    return from_edge_list([(relabel[u], relabel[v]) for u, v in edges])


def test_matches_reference_on_deletions_that_cut(monkeypatch):
    # Random 4-regular graphs never cut (0 of 2581 deletions at n = 150 to
    # 5000), so trees of blocks exercise the cut paths: a child's subtree
    # whose search runs dry, and the root's part whose search does, which
    # moves the record's old root to another record.
    cuts = Counter()
    split = planar._Table.split

    def counted_split(self, c, orphans):
        root = c.root
        children = split(self, c, orphans)
        cuts["deletions that cut"] += len(children) > 1
        cuts["the root's part cut off"] += root >= 0 and self.comp_of[root] != c.id
        return children

    monkeypatch.setattr(planar._Table, "split", counted_split)
    rng = random.Random(20261019)
    for params in (None, QUARTER):
        for n in (100, 200, 400):
            for _ in range(2):
                _lockstep(_block_tree(rng, n), params, check_table=True)
    assert cuts["deletions that cut"] >= 100, cuts
    assert cuts["the root's part cut off"] > 0, cuts
