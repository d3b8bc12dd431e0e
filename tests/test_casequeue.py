"""The shared case queue, and the invariant check every reducer's
lockstep test runs after each step."""

import pytest

from planarize.casequeue import CaseQueue
from planarize.errors import CaseAnalysisIncomplete


def check_invariant(queue, anchors, match):
    """From scratch: every anchor with a case holds a live entry whose key
    is at most the rank of its case."""
    live = set(queue.heap)
    for a in anchors:
        found = match(a)
        if found is not None:
            key = queue.queued.get(a)
            assert key is not None and key <= found[0], (a, key, found)
            assert (key, a) in live


def test_pop_takes_the_least_rank_then_the_least_anchor():
    ranks = {"a": 2, "b": 1, "c": 1, "d": None}

    def match(a):
        return None if ranks[a] is None else (ranks[a], a.upper())

    q = CaseQueue()
    q.push_all((0, a) for a in ranks)
    popped = []
    while (found := q.pop(match)) is not None:
        popped.append(found)
        ranks[found[1]] = None
    assert popped == [(1, "b", "B"), (1, "c", "C"), (2, "a", "A")]
    assert q.queued == {}


def test_push_keeps_only_a_lower_key():
    q = CaseQueue()
    q.push("a", 3)
    q.push("a", 5)
    assert q.queued == {"a": 3} and q.heap == [(3, "a")]
    q.push_all([(1, "a")])
    assert q.queued == {"a": 1} and sorted(q.heap) == [(1, "a"), (3, "a")]
    assert q.pop(lambda a: (1, None)) == (1, "a", None)
    assert q.pop(lambda a: (1, None)) is None  # the (3, "a") entry is stale


def test_case_ranked_below_its_key_raises():
    q = CaseQueue()
    q.push("a", 2)
    with pytest.raises(CaseAnalysisIncomplete):
        q.pop(lambda a: (1, None))
