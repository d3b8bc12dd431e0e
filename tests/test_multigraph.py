import random

import pytest
from hypothesis import given, settings, strategies as st

from planarize import certify, generators as gen
from planarize.errors import GraphError, LoopInInput, NoSuchEdge, UnknownVertex
from planarize.multigraph import MultiGraph, from_edge_list


def test_from_edge_list_path():
    g = from_edge_list([(0, 1), (1, 2)])
    assert (g.n, g.m) == (3, 2)


def test_from_edge_list_isolated_via_hint():
    g = from_edge_list([], n_hint=4)
    assert (g.n, g.m) == (4, 0)


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list([(0, 1), (0, 1), (1, 0)])
    assert g.m == 1
    assert g.multiplicity(0, 1) == 1


def test_from_edge_list_rejects_loops():
    with pytest.raises(LoopInInput):
        from_edge_list([(2, 2)])


def test_delete_star_center():
    g = gen.complete_bipartite(1, 3)
    assert g.delete_vertex(0) == 3
    assert g.n == 3 and g.m == 0


def test_delete_from_k4_leaves_triangle():
    g = gen.complete(4)
    assert g.delete_vertex(0) == 3
    assert (g.n, g.m) == (3, 3)


def test_delete_counts_loop_once():
    g = MultiGraph()
    g.add_edge(0, 0)
    g.add_edge(0, 1)
    assert g.degree(0) == 3
    assert g.delete_vertex(0) == 2


def test_delete_unknown_vertex():
    g = from_edge_list([(0, 1)])
    with pytest.raises(UnknownVertex):
        g.delete_vertex(9)


@pytest.mark.parametrize("query", [
    lambda g, v: g.degree(v),
    lambda g, v: g.neighbors(v),
    lambda g, v: g.loops(v),
    lambda g, v: g.multiplicity(v, 0),
    lambda g, v: g.multiplicity(0, v),
    lambda g, v: g.incidences(v),
], ids=["degree", "neighbors", "loops",
        "multiplicity_first", "multiplicity_second", "incidences"])
@pytest.mark.parametrize("make", [lambda g: g, lambda g: g.copy()], ids=["graph", "copy"])
def test_query_on_absent_vertex_raises_unknown_vertex(query, make):
    g = from_edge_list([(0, 1), (1, 2)])
    g.delete_vertex(2)
    h = make(g)
    for v in (2, 9):
        with pytest.raises(UnknownVertex) as info:
            query(h, v)
        assert str(info.value) == f"vertex {v} not in graph"


def test_edge_counts_must_be_positive():
    g = from_edge_list([(0, 1), (1, 2)])
    for count in (0, -1):
        with pytest.raises(GraphError):
            g.add_edge(0, 1, count)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1, count)
        with pytest.raises(GraphError):
            g.remove_edge(0, 2, count)
    g.check_invariants()
    assert g.m == 2


def test_contract_path_edge():
    g = from_edge_list([(0, 1), (1, 2)])
    g.contract_edge(0, 1, 1)
    assert (g.n, g.m) == (2, 1)
    assert g.multiplicity(1, 2) == 1


def test_contract_triangle_creates_parallel_pair():
    g = gen.cycle(3)
    g.contract_edge(0, 1, 1)
    assert (g.n, g.m) == (2, 2)
    assert g.multiplicity(1, 2) == 2


def test_contract_k4_keeps_five_units():
    g = gen.complete(4)
    g.contract_edge(0, 1, 1)
    assert (g.n, g.m) == (3, 5)
    assert g.multiplicity(1, 2) == 2 and g.multiplicity(1, 3) == 2
    assert g.multiplicity(2, 3) == 1


def test_contract_parallel_pair_makes_loop():
    g = MultiGraph()
    g.add_edge(0, 1, 2)
    g.add_edge(1, 2)
    g.contract_edge(0, 1, 1)
    assert g.loops(1) == 1
    assert g.degree(1) == 3  # loop counts twice plus the edge to 2


def test_contract_missing_edge():
    g = from_edge_list([(0, 1), (2, 3)])
    with pytest.raises(NoSuchEdge):
        g.contract_edge(0, 2, 0)


def test_contract_survivor_keeps_origin():
    g = from_edge_list([(0, 1), (1, 2)])
    g.contract_edge(0, 1, 1)
    assert g.has_vertex(1)
    assert not g.has_vertex(0)


def test_simplify_counts_units():
    g = MultiGraph()
    g.add_edge(0, 0)
    g.add_edge(1, 2, 3)
    assert g.simplify() == 3
    assert g.is_simple()


def test_simplify_noop_on_simple():
    g = gen.petersen()
    assert g.simplify() == 0


def test_simplify_dipole():
    g = MultiGraph()
    g.add_edge(0, 1, 3)
    assert g.simplify() == 2
    assert g.m == 1


def test_degree_and_regularity():
    assert gen.petersen().is_d_regular(3)
    assert gen.complete(5).components() == [[0, 1, 2, 3, 4]]
    g = MultiGraph()
    g.add_edge(0, 0)
    assert g.degree(0) == 2


def test_girth_values():
    assert gen.cycle(5).girth() == 5
    assert gen.path(6).girth() is None
    assert gen.petersen().girth() == 5
    loop = MultiGraph()
    loop.add_edge(0, 0)
    assert loop.girth() == 1
    par = MultiGraph()
    par.add_edge(0, 1, 2)
    assert par.girth() == 2


def _girth_by_cycle_enumeration(g):
    # Independent oracle: shortest cycle via DFS over all simple cycles.
    best = None
    verts = g.sorted_vertices()
    adj = {v: g.neighbors(v) for v in verts}

    def walk(start, v, visited, length):
        nonlocal best
        for w in adj[v]:
            if w == start and length >= 2:
                if best is None or length + 1 < best:
                    best = length + 1
            elif w > start and w not in visited:
                visited.add(w)
                walk(start, w, visited, length + 1)
                visited.discard(w)

    for s in verts:
        walk(s, s, {s}, 0)
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_girth_matches_enumeration_oracle(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = from_edge_list(edges, n)
    assert g.girth() == _girth_by_cycle_enumeration(g)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_invariants_hold_under_random_mutation(data):
    n = data.draw(st.integers(3, 9))
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=20,
        )
    )
    g = from_edge_list(edges, n)
    g.check_invariants()
    for _ in range(data.draw(st.integers(0, 8))):
        op = data.draw(st.sampled_from(["delete", "contract", "simplify"]))
        verts = g.sorted_vertices()
        if not verts:
            break
        if op == "delete":
            v = data.draw(st.sampled_from(verts))
            n_before, m_before = g.n, g.m
            removed = g.delete_vertex(v)
            assert g.n == n_before - 1 and g.m == m_before - removed
        elif op == "contract":
            pairs = [(u, v) for u, v, _ in g.iter_edges() if u != v]
            if not pairs:
                continue
            u, v = data.draw(st.sampled_from(pairs))
            m_before = g.m
            g.contract_edge(u, v, v)
            assert g.m == m_before - 1
        else:
            g.simplify()
        g.check_invariants()


# -- the bulk constructors against one-edge-at-a-time references --------


def _layout(g):
    """Everything iteration order can expose: vertex order, each row in
    order with its multiplicities, degrees and m."""
    rows = g.adjacency_map()
    return (
        list(g.vertices()),
        [(v, list(rows[v].items())) for v in g.vertices()],
        list(g.degree_map().items()),
        g.m,
    )


def _reference_from_edge_list(edges, n_hint=0):
    g = MultiGraph()
    for i in range(n_hint):
        g.add_vertex(i)
    for u, v in edges:
        if u == v:
            raise LoopInInput(f"self loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex label in edge ({u},{v})")
        g.add_vertex(u)
        g.add_vertex(v)
        if g.multiplicity(u, v) == 0:
            g.add_edge(u, v)
    return g


def _reference_induced_subgraph(g, s):
    out = MultiGraph()
    order = sorted(s)
    for v in order:
        if not g.has_vertex(v):
            raise UnknownVertex(f"vertex {v} not in graph")
        out.add_vertex(v)
    for u in order:
        for v, c in g.incidences(u):
            if u <= v and v in s:
                out.add_edge(u, v, c)
    return out


def _outcome(build, *args):
    """The layout of what ``build`` returns, or the type and message it raises."""
    try:
        return _layout(build(*args))
    except GraphError as exc:
        return type(exc), str(exc)


def _random_pairs(rng, labels, count):
    """Pairs over ``labels`` in a shuffled order, with repeats in both
    orientations, so rows and vertices are far from sorted."""
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(count)]
    pairs = [(u, v) for u, v in pairs if u != v]
    pairs += [(v, u) for u, v in rng.sample(pairs, len(pairs) // 3)]
    rng.shuffle(pairs)
    return pairs


def test_from_edge_list_matches_one_edge_at_a_time():
    for seed in range(300):
        rng = random.Random(seed)
        labels = rng.sample(range(40), rng.randrange(2, 16))
        edges = _random_pairs(rng, labels, rng.randrange(0, 40))
        n_hint = rng.choice((0, 0, rng.randrange(1, 45)))
        got = _outcome(from_edge_list, edges, n_hint)
        assert got == _outcome(_reference_from_edge_list, edges, n_hint), seed
        g = from_edge_list(edges, n_hint)
        g.check_invariants()
        assert g.is_simple(), seed


def test_from_edge_list_fails_like_one_edge_at_a_time():
    for seed in range(100):
        rng = random.Random(seed)
        edges = _random_pairs(rng, list(range(12)), rng.randrange(0, 20))
        for _ in range(rng.randrange(1, 3)):
            bad = rng.choice([(3, 3), (-1, 2), (4, -2), (-1, -1), (0, 0)])
            edges.insert(rng.randrange(len(edges) + 1), bad)
        n_hint = rng.randrange(0, 8)
        got = _outcome(from_edge_list, edges, n_hint)
        assert got[0] in (LoopInInput, GraphError), seed
        assert got == _outcome(_reference_from_edge_list, edges, n_hint), seed


def _random_multigraph(rng):
    """A multigraph with loops and parallel bundles whose rows and vertex
    order are scrambled by insertions, deletions and contractions."""
    g = MultiGraph()
    labels = rng.sample(range(30), rng.randrange(1, 14))
    for v in labels:
        g.add_vertex(v)
    for _ in range(rng.randrange(0, 35)):
        g.add_edge(rng.choice(labels), rng.choice(labels), rng.choice((1, 1, 1, 2, 3)))
    for _ in range(rng.randrange(0, 4)):
        pairs = [(u, v) for u, v, _ in g.iter_edges() if u != v]
        if pairs and rng.random() < 0.5:
            u, v = rng.choice(pairs)
            g.contract_edge(u, v, rng.choice((u, v)))
        elif g.n > 1:
            g.delete_vertex(rng.choice(g.sorted_vertices()))
    return g


def test_induced_subgraph_matches_one_edge_at_a_time():
    failures = 0
    for seed in range(300):
        rng = random.Random(seed)
        g = _random_multigraph(rng)
        verts = g.sorted_vertices()
        s = set(rng.sample(verts, rng.randrange(0, len(verts) + 1)))
        if rng.random() < 0.2:
            s.add(rng.choice((31, 99, rng.randrange(30))))
        got = _outcome(certify.induced_subgraph, g, s)
        assert got == _outcome(_reference_induced_subgraph, g, s), seed
        if got[0] is UnknownVertex:
            failures += 1
            continue
        sub = certify.induced_subgraph(g, s)
        sub.check_invariants()
        rows = sub.adjacency_map()
        assert list(sub.vertices()) == sorted(s), seed
        assert all(list(rows[v]) == sorted(rows[v]) for v in sub.vertices()), seed
    assert failures > 0


def _scramble(h, rng):
    """Every kind of mutation, on rows the source shares with h if any."""
    for _ in range(12):
        verts = h.sorted_vertices()
        if not verts:
            return
        op = rng.randrange(6)
        u, v = rng.choice(verts), rng.choice(verts)
        pairs = [(a, b) for a, b, _ in h.iter_edges() if a != b]
        if op == 0:
            h.add_edge(u, v, rng.randrange(1, 3))
        elif op == 1:
            h.delete_vertex(u)
        elif op == 2 and pairs:
            a, b = rng.choice(pairs)
            h.contract_edge(a, b, rng.choice((a, b)))
        elif op == 3 and pairs:
            a, b = rng.choice(pairs)
            h.remove_edge(a, b)
        elif op == 4:
            h.simplify()
        else:
            h.add_vertex(100 + rng.randrange(50))


@pytest.mark.parametrize("working_copy", [MultiGraph.copy])
def test_working_copies_never_change_their_source(working_copy):
    for seed in range(100):
        rng = random.Random(seed)
        g = _random_multigraph(rng)
        before = _layout(g)
        h = working_copy(g)
        assert _layout(h) == before, seed
        _scramble(h, rng)
        h.check_invariants()
        assert _layout(g) == before, seed
        g.check_invariants()
