"""The case queue every reducer takes its next case from.

Each reducer applies, step after step, the case of least rank that fits
anywhere in the working graph, and among those the one at the least
anchor.  A reducer names its anchors (vertices, or components) and
writes one matcher, ``match(anchor) -> (rank, case) or None``, the only
place its case conditions appear.  The queue finds the least (rank,
anchor) without rescanning the graph: an anchor is queued under a key
that is a lower bound on its rank, and matched only when it reaches the
top.  Which anchors to push again after a step is the reducer's choice.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf

from .errors import CaseAnalysisIncomplete


class CaseQueue:
    """A lazy min-heap of (key, anchor) entries.

    ``queued[a]`` is the key of a's one live entry; any other entry for a
    is stale and skipped.  The reducer keeps the invariant that every
    anchor with a case holds a live entry whose key is at most the rank
    of its case, by pushing again, after each step, every anchor whose
    rank the step may have lowered.  Then an anchor that pops with a case
    of rank equal to its key holds the least (rank, anchor) of all.
    ``popped`` counts the entries ``pop`` takes off the heap, stale ones
    included: a work counter.
    """

    def __init__(self) -> None:
        self.heap: list = []
        self.queued: dict = {}
        self.popped = 0

    def push(self, anchor, key) -> None:
        """Queue anchor at key, unless its live entry is at or below it."""
        if key < self.queued.get(anchor, inf):
            self.queued[anchor] = key
            heappush(self.heap, (key, anchor))

    def push_all(self, entries) -> None:
        """``push(anchor, key)`` for each ``(key, anchor)`` entry, in one
        call; an entry that lowers a key goes on the heap as it is."""
        heap, queued = self.heap, self.queued
        for entry in entries:
            key, a = entry
            if key < queued.get(a, inf):
                queued[a] = key
                heappush(heap, entry)

    def discard(self, anchor) -> None:
        """Forget an anchor that is gone: its entries become stale."""
        self.queued.pop(anchor, None)

    def pop(self, match):
        """The least (rank, anchor, case), taken off the queue; None when
        no queued anchor has a case.  An anchor whose case ranks above its
        key goes back at its rank; one ranked below its key means the
        invariant broke, and raises."""
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
