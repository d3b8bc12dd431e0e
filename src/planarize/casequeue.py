"""The case queue every reducer takes its next case from.

Each reducer applies, step after step, the case of least rank that fits
anywhere in the working graph, and among those the one at the least
anchor.  A reducer names its anchors (vertices, or components) and
writes one matcher, ``match(anchor) -> (rank, case) or None``, the only
place its case conditions appear.  The queue finds the least (rank,
anchor) without rescanning the graph: an anchor is queued under a key
that is a lower bound on its rank, and matched only when it reaches the
top.  Which anchors to push again after a step is the reducer's choice.

Every key is a small non-negative integer, a rank from the reducer's
case table, so the queue keeps one lazy min-heap of anchors per key, a
bucket queue (Dial, "Algorithm 360", CACM 1969): a push or a pop
compares anchors only, never (key, anchor) pairs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf

from .errors import CaseAnalysisIncomplete


class CaseQueue:
    """Lazy min-heaps of anchors, one per key, and the lowest key whose
    heap may hold an entry.

    ``queued[a]`` is the key of a's one live entry; any other entry for a
    is stale and skipped.  The reducer keeps the invariant that every
    anchor with a case holds a live entry whose key is at most the rank
    of its case, by pushing again, after each step, every anchor whose
    rank the step may have lowered.  Then an anchor that pops with a case
    of rank equal to its key holds the least (rank, anchor) of all.

    ``pop`` walks the heaps up from the lowest one that may be non-empty
    (``push`` lowers that mark), and in each heap takes anchors in order,
    so it takes the entries, stale ones too, in exactly the (key, anchor)
    order of one heap of pairs.  ``popped`` counts the entries it takes
    off, stale ones included: a work counter.  The heaps grow to the
    largest key pushed.
    """

    __slots__ = ("queued", "popped", "_heaps", "_low")

    def __init__(self) -> None:
        self.queued: dict = {}
        self.popped = 0
        self._heaps: list[list] = []
        self._low = 0  # every heap below this key is empty

    def entries(self) -> list[tuple[int, object]]:
        """Every (key, anchor) entry held, stale ones included, in pop
        order: a copy, for checks."""
        return [(key, a) for key, heap in enumerate(self._heaps) for a in sorted(heap)]

    def _grow(self, key: int) -> None:
        self._heaps.extend([] for _ in range(key + 1 - len(self._heaps)))

    def push(self, anchor, key: int) -> None:
        """Queue anchor at key, unless its live entry is at or below it."""
        self.push_all(((key, anchor),))

    def push_all(self, entries) -> None:
        """``push(anchor, key)`` for each ``(key, anchor)`` entry, in one
        call."""
        heaps, queued = self._heaps, self.queued
        low = self._low
        for key, a in entries:
            if key < queued.get(a, inf):
                queued[a] = key
                try:
                    heappush(heaps[key], a)
                except IndexError:
                    self._grow(key)
                    heappush(heaps[key], a)
                if key < low:
                    low = key
        self._low = low

    def discard(self, anchor) -> None:
        """Forget an anchor that is gone: its entries become stale."""
        self.queued.pop(anchor, None)

    def pop(self, match):
        """The least (rank, anchor, case), taken off the queue; None when
        no queued anchor has a case.  An anchor whose case ranks above its
        key goes back at its rank; one ranked below its key means the
        invariant broke, and raises."""
        heaps, queued = self._heaps, self.queued
        popped = 0
        key = self._low
        top = len(heaps)
        while key < top:
            heap = heaps[key]
            while heap:
                anchor = heappop(heap)
                popped += 1
                if queued.get(anchor) != key:
                    continue
                del queued[anchor]
                found = match(anchor)
                if found is None:
                    continue
                rank, case = found
                if rank == key:
                    self._low = key
                    self.popped += popped
                    return rank, anchor, case
                if rank < key:
                    self._low = key
                    raise CaseAnalysisIncomplete(
                        f"case at {anchor} has rank {rank} below its key {key}"
                    )
                queued[anchor] = rank
                try:
                    heappush(heaps[rank], anchor)
                except IndexError:
                    self._grow(rank)
                    top = len(heaps)
                    heappush(heaps[rank], anchor)
            key += 1
        self._low = key
        self.popped += popped
        return None
