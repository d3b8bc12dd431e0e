"""The shared case queue, and the invariant check every reducer's
lockstep test runs after each step."""

from heapq import heappop, heappush
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from planarize.casequeue import CaseQueue
from planarize.errors import CaseAnalysisIncomplete


def check_invariant(queue, anchors, match):
    """From scratch: every anchor with a case holds a live entry whose key
    is at most the rank of its case."""
    live = set(queue.entries())
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
    assert q.queued == {"a": 3} and q.entries() == [(3, "a")]
    q.push_all([(1, "a")])
    assert q.queued == {"a": 1} and q.entries() == [(1, "a"), (3, "a")]
    assert q.pop(lambda a: (1, None)) == (1, "a", None)
    assert q.pop(lambda a: (1, None)) is None  # the (3, "a") entry is stale
    assert q.entries() == [] and q.popped == 2


def test_case_ranked_below_its_key_raises():
    q = CaseQueue()
    q.push("a", 2)
    with pytest.raises(CaseAnalysisIncomplete):
        q.pop(lambda a: (1, None))


class HeapQueue:
    """The queue as one lazy heap of (key, anchor) pairs: the reference
    the bucketed queue must pop exactly like."""

    def __init__(self) -> None:
        self.heap: list = []
        self.queued: dict = {}
        self.popped = 0

    def push(self, anchor, key) -> None:
        if key < self.queued.get(anchor, inf):
            self.queued[anchor] = key
            heappush(self.heap, (key, anchor))

    def push_all(self, entries) -> None:
        for key, a in entries:
            self.push(a, key)

    def discard(self, anchor) -> None:
        self.queued.pop(anchor, None)

    def pop(self, match):
        heap, queued = self.heap, self.queued
        popped = 0
        while heap:
            key, anchor = heappop(heap)
            popped += 1
            if queued.get(anchor) != key:
                continue
            del queued[anchor]
            found = match(anchor)
            if found is None:
                continue
            rank, case = found
            if rank == key:
                self.popped += popped
                return rank, anchor, case
            if rank < key:
                raise CaseAnalysisIncomplete(
                    f"case at {anchor} has rank {rank} below its key {key}"
                )
            queued[anchor] = rank
            heappush(heap, (rank, anchor))
        self.popped += popped
        return None


_KEYS = st.integers(0, 14)
_ANCHORS = st.integers(0, 11)
# A matcher's answer for one anchor, relative to its key: no case, or a
# case ranked at it, some way above it, or below it (which must raise).
_ANSWERS = st.one_of(st.none(), st.just(0), st.integers(1, 4), st.integers(-3, -1))
_CALLS = st.one_of(
    st.tuples(st.just("push"), _ANCHORS, _KEYS),
    st.tuples(st.just("push_all"), st.lists(st.tuples(_KEYS, _ANCHORS), max_size=6)),
    st.tuples(st.just("discard"), _ANCHORS),
    st.tuples(st.just("pop"), st.lists(_ANSWERS, min_size=1, max_size=8)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CALLS, max_size=40))
def test_buckets_pop_like_one_heap_of_pairs(calls):
    new, ref = CaseQueue(), HeapQueue()
    for call in calls:
        if call[0] != "pop":
            for q in (new, ref):
                getattr(q, call[0])(*call[1:])
            assert new.queued == ref.queued
            continue
        answers = call[1]
        results = []
        for q in (new, ref):
            keys = dict(q.queued)
            asked = []

            def match(anchor, keys=keys, asked=asked):
                # The i-th match of this pop answers with answers[i], read
                # against the key the anchor was popped at, and no case
                # after the last answer, so every pop ends.
                shift = answers[len(asked)] if len(asked) < len(answers) else None
                asked.append(anchor)
                if shift is None:
                    return None
                keys[anchor] = rank = max(keys[anchor] + shift, 0)
                return rank, anchor

            try:
                results.append((q.pop(match), asked))
            except CaseAnalysisIncomplete as exc:
                results.append((str(exc), asked))
        assert results[0] == results[1]
        assert new.queued == ref.queued and new.popped == ref.popped
    assert new.entries() == sorted(ref.heap)

