"""The reducers' work counters, pinned exactly.

The per-step and doubling gates elsewhere are upper bounds.  These pins
show that a speed-up comes from the constant per step, not from a
requeue or a match skipped: a change to any count here changes how much
dispatch work a reducer does, and needs its own reason.  The planar
pins also hold the rows its component table reads and the parent steps
it walks to keep the components connected.
"""

import functools
import random

import pytest

from planarize import generators as gen
from planarize import planar, pseudoforest as pf, treewidth2 as tw2
from planarize.multigraph import from_edge_list
from planarize.planar import ChargeParams
from planarize.solution import drive


def _pseudoforest(g):
    run = drive(g, pf._Run)
    return run.keyed, run.matched, run.registered, run.queue.popped


def _tw2(g):
    run = drive(g, tw2._Run)
    return run.matched, run.queue.popped


def _planar(g):
    run = drive(g, functools.partial(planar._Run, params=ChargeParams.paper()))
    return run.matched, run.pushed, run.table.split_work, run.table.walked


GRAPHS = {
    "rr4": lambda: gen.random_regular(4000, 4, 11),
    "k33": lambda: gen.disjoint_copies(gen.complete_bipartite(3, 3), 1000),
}

# (keyed, matched, registered, queue.popped), (matched, queue.popped),
# (matched, pushed, table.split_work, table.walked)
#
# Re-pinned when ``solution.drive`` came to stop at an empty graph and a
# pseudoforest step to key only the rows it changed, with the same
# traces, matches and registrations.  Pseudoforest ``keyed`` fell from
# 17457 to 10837 (rr4) and from 8000 to 6000 (k33): after a contraction
# the survivor's other neighbours, whose rows stay as they were, are no
# longer keyed.  ``queue.popped`` fell by the stale entries that the last
# call of ``step`` popped only to find the graph empty: pseudoforest 9662
# to 5606 and 12000 to 11994, tw2 10705 to 6573 and 20000 to 19992.
# Planar checked for the empty graph itself before; its pins stayed.
PINNED = {
    "rr4": {"pseudoforest": (10837, 4232, 923, 5606), "tw2": (4804, 6573),
            "planar": (4820, 12781, 6870, 27908)},
    "k33": {"pseudoforest": (6000, 6000, 0, 11994), "tw2": (12000, 19992),
            "planar": (4997, 5000, 8000, 2000)},
}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_work_counters_are_pinned(graph):
    g = GRAPHS[graph]()
    got = {"pseudoforest": _pseudoforest(g), "tw2": _tw2(g), "planar": _planar(g)}
    assert got == PINNED[graph]


def _dense(p):
    """Eight G(n, p) graphs, n = 18 to 25, from one seeded stream."""
    rng = random.Random(11)
    return [from_edge_list([(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p], n)
            for n in range(18, 26)]


# Dense graphs, where recounting degrees and re-queueing the touched
# vertices are most of a planar step: (matched, pushed, table.split_work,
# table.walked) summed over the eight graphs.
PINNED_DENSE = {0.5: (186, 1051, 446, 443), 0.9: (216, 1724, 337, 182)}


@pytest.mark.parametrize("p", sorted(PINNED_DENSE))
def test_planar_work_counters_are_pinned_on_dense_graphs(p):
    got = [_planar(g) for g in _dense(p)]
    assert tuple(map(sum, zip(*got))) == PINNED_DENSE[p]


def _wheel(n):
    """W_n as ``networkx.wheel_graph(n)`` builds it: hub 0, rim 1..n-1."""
    rim = range(1, n)
    return from_edge_list([(0, v) for v in rim] + [(v, v % (n - 1) + 1) for v in rim], n)


# The wheel is where the component table's parent walks are worst: its
# spanning tree hangs nearly every rim vertex from the hub, and deleting
# the hub walks about n^2/2 parent steps (``walked``).  Making that walk
# near-linear re-pins ``walked`` here; the other three counts stay.
PINNED_WHEEL = {1000: (2, 1001, 1996, 496506), 2000: (2, 2001, 3996, 1993006)}


@pytest.mark.parametrize("n", sorted(PINNED_WHEEL))
def test_planar_work_counters_are_pinned_on_the_wheel(n):
    assert _planar(_wheel(n)) == PINNED_WHEEL[n]
