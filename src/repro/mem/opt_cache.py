"""Fully-associative cache with Belady's optimal (OPT) replacement.

The paper's Section 5.1 compares against "a fully-associative address cache
with OPT policy (FA-OPT)" to show that address caches are limited by working
set, not policy. OPT needs the future, so we provide:

* :func:`belady_hit_flags` — offline two-pass computation of the hit/miss
  flag per access of a block trace;
* :class:`BeladyCache` — an online-looking wrapper that replays those flags
  while keeping normal :class:`CacheStats`.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from repro.mem.stats import CacheStats
from repro.params import CacheParams


def belady_hit_flags(trace: Sequence[int], capacity_blocks: int) -> list[bool]:
    """Return per-access hit flags for OPT replacement on a block trace.

    Uses the classic next-use priority queue: on a fill conflict, evict the
    resident block whose next use is farthest in the future (or never).
    Every access's next use of the same block comes from one stable
    argsort, so the loop keeps only each block's current next use; stale
    heap entries are skipped lazily, and the heap is rebuilt from the
    resident set whenever stale entries outnumber live ones, so it stays
    O(capacity). Runs in O(n log n); ``trace`` may be a numpy array.
    """
    n = len(trace)
    if capacity_blocks <= 0:
        return [False] * n
    infinity = n + 1
    blocks = np.asarray(trace, dtype=np.int64)
    order = np.argsort(blocks, kind="stable")
    same = blocks[order[1:]] == blocks[order[:-1]]
    following = np.full(n, infinity, dtype=np.int64)
    following[order[:-1][same]] = order[1:][same]
    del order, same

    next_of: dict[int, int] = {}
    # Max-heap of (-next_position, block); stale entries are skipped lazily.
    heap: list[tuple[int, int]] = []
    heap_limit = 4 * capacity_blocks + 64
    heappush = heapq.heappush
    heappop = heapq.heappop
    flags: list[bool] = []
    append = flags.append
    for start in range(0, n, _CHUNK):
        for block, upcoming in zip(
            blocks[start:start + _CHUNK].tolist(),
            following[start:start + _CHUNK].tolist(),
        ):
            if block in next_of:
                append(True)
            else:
                append(False)
                if len(next_of) >= capacity_blocks:
                    while heap:
                        neg_pos, victim = heappop(heap)
                        if next_of.get(victim) == -neg_pos:
                            del next_of[victim]
                            break
            next_of[block] = upcoming
            heappush(heap, (-upcoming, block))
            if len(heap) > heap_limit:
                # Same live entries, same pop order: only stale ones go.
                heap = [(-u, b) for b, u in next_of.items()]
                heapq.heapify(heap)
    return flags


#: Accesses converted to Python ints at a time by belady_hit_flags.
_CHUNK = 8192


class BeladyCache:
    """Replay wrapper exposing the same probe interface as AddressCache.

    Construct it from the *complete* block trace the workload will issue,
    then call :meth:`lookup` in exactly that order.
    """

    def __init__(self, trace: Sequence[int], params: CacheParams | None = None) -> None:
        self.params = params or CacheParams()
        self.stats = CacheStats()
        self._flags = belady_hit_flags(list(trace), self.params.entries)
        self._cursor = 0
        self._trace = list(trace)

    def lookup(self, block: int) -> bool:
        if self._cursor >= len(self._flags):
            raise IndexError("BeladyCache replayed past the recorded trace")
        expected = self._trace[self._cursor]
        if block != expected:
            raise ValueError(
                f"BeladyCache trace divergence at access {self._cursor}: "
                f"expected block {expected}, got {block}"
            )
        hit = self._flags[self._cursor]
        self._cursor += 1
        self.stats.record(hit)
        if not hit:
            self.stats.insertions += 1
        return hit
