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
    q.push_all(ranks, lambda a: 0)
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
    q.push_all(["a"], lambda a: 1)
    assert q.queued == {"a": 1} and sorted(q.heap) == [(1, "a"), (3, "a")]
    assert q.pop(lambda a: (1, None)) == (1, "a", None)
    assert q.pop(lambda a: (1, None)) is None  # the (3, "a") entry is stale


def test_case_ranked_below_its_key_raises():
    q = CaseQueue()
    q.push("a", 2)
    with pytest.raises(CaseAnalysisIncomplete):
        q.pop(lambda a: (1, None))


def test_raised_holds_anchors_put_back_above_their_key_or_dropped():
    ranks = {"a": 4, "b": None, "c": 2}
    q = CaseQueue()
    q.push_all(ranks, lambda a: 1)
    found = q.pop(lambda a: None if ranks[a] is None else (ranks[a], None))
    assert found == (2, "c", None)
    assert q.raised == {"a", "b"}
    assert q.queued == {"a": 4}  # "b" has no case, so no entry


def test_a_lower_push_takes_an_anchor_out_of_raised():
    q = CaseQueue()
    q.push("a", 1)
    assert q.pop(lambda a: None) is None
    assert q.raised == {"a"} and q.queued == {}
    q.push("a", 3)  # any key is below no entry
    q.push("b", 1)
    assert q.raised == set()
    assert q.pop(lambda a: (4 if a == "b" else 3, None)) == (3, "a", None)
    assert q.raised == {"b"} and q.queued == {"b": 4}
    q.push("b", 4)  # not lower: "b" stays raised
    assert q.raised == {"b"}
    q.push_all(["b"], lambda a: 2)
    assert q.raised == set() and q.queued == {"b": 2}


def test_firing_and_discarding_leave_raised():
    q = CaseQueue()
    q.push_all("ab", lambda a: 1)
    assert q.pop(lambda a: (2, None)) == (2, "a", None)  # raised, then fired
    assert q.raised == {"b"}
    q.discard("b")
    assert q.raised == set() and q.queued == {}
    assert q.pop(lambda a: (2, None)) is None  # b's entry went stale
