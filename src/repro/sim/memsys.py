"""Memory-system organizations under comparison (Section 5, Table 1).

Each variant turns one index walk into a :class:`WalkTrace` of timed
accesses while mutating its cache state:

* ``stream``   — streaming DSA: every node touch goes to DRAM.
* ``address``  — set-associative LRU address cache: full root-to-leaf walk
  with per-block probes (a hit eliminates a single DRAM access).
* ``fa_opt``   — fully-associative address cache with Belady-OPT
  replacement (two-pass; walks must replay in preparation order).
* ``xcache``   — X-cache [50]: key-tagged leaf cache; a hit short-circuits
  the whole walk, a miss walks root-to-leaf from DRAM and inserts the leaf.
* ``metal`` / ``metal_ix`` — IX-cache probe short-circuits to the deepest
  cached covering node; nodes fetched on the way down are offered to the
  pattern controller (METAL) or greedily inserted (METAL-IX).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import chain
from typing import Any

import numpy as np

from repro.core.descriptors import LevelDescriptor, WalkContext
from repro.core.ix_cache import _UTILITY_MAX, _entry_level
from repro.core.metal import Metal, MetalIX
from repro.core.packing import pack_node
from repro.indexes.base import IndexNode
from repro.mem.address_cache import AddressCache
from repro.mem.opt_cache import belady_hit_flags
from repro.mem.stats import CacheStats
from repro.obs.tracer import NULL_TRACER
from repro.params import BLOCK_SIZE, NS_STRIDE, CacheParams, SimParams
from repro.sim.engine import (
    Access,
    K_DRAM,
    K_LATENCY,
    K_PREFETCH,
    K_SRAM,
    WalkTrace,
)


#: Preallocated WalkContext rows for the batch emitters: a context is a
#: pure (short_circuited, position) value, so walks at the same position
#: share one instance instead of allocating a NamedTuple per node.
_CTX_MAX = 64
_CTX_FULL = tuple(WalkContext(False, p) for p in range(_CTX_MAX))
_CTX_SHORT = tuple(WalkContext(True, p) for p in range(_CTX_MAX))


def namespace_fn(index: Any) -> Callable[[int], int]:
    """Map raw index keys into the shared, per-index namespaced key space."""
    base = getattr(index, "index_id", 0) * NS_STRIDE
    neg_inf = float("-inf")
    pos_inf = float("inf")

    def ns(key: Any) -> int:
        if key is None or key == neg_inf:
            key = 0
        elif key == pos_inf:
            key = NS_STRIDE - 1
        k = int(key)
        if k < 0:
            k = 0
        elif k >= NS_STRIDE:
            k = NS_STRIDE - 1
        return base + k

    return ns


@lru_cache(maxsize=None)
def _blocks_for(address: int, nbytes: int) -> tuple[int, ...]:
    """Footprint for one (address, nbytes) extent — the memoized core.

    The footprint is an affine function of the extent alone (the METAL
    observation that walk behaviour is affine in (level, range) applies to
    node geometry too), so it is computed once per distinct extent instead
    of once per node visit. Keyed on (address, nbytes) rather than node
    identity: structural mutations allocate fresh extents, so stale nodes
    can never alias a live entry.
    """
    first = address - (address % BLOCK_SIZE)
    total = max(1, -(-(address + max(nbytes, 1) - first) // BLOCK_SIZE))
    touched = min(total, 1 + max(0, total - 1).bit_length())
    # Header plus evenly spaced probe blocks (deterministic for replay).
    if touched >= total:
        picks = range(total)
    else:
        step = total / touched
        picks = sorted({int(i * step) for i in range(touched)})
    return tuple(first + p * BLOCK_SIZE for p in picks)


def _node_blocks(node: IndexNode) -> tuple[int, ...]:
    """Block-aligned addresses a walker actually touches in a node.

    A multi-block node is binary-searched, not read whole: the walker
    fetches the header block plus ~log2(blocks) probe blocks. Every memory
    organization uses the same footprint, so comparisons stay fair.
    """
    return _blocks_for(node.address, node.nbytes)


class MemorySystem(ABC):
    """Turns walks into access traces while maintaining cache state."""

    name: str = "abstract"

    def __init__(self, sim: SimParams | None = None) -> None:
        self.sim = sim or SimParams()
        self.tracer = NULL_TRACER
        #: Optional FaultInjector (repro.faults). None on fault-free runs;
        #: only systems with corruptible state (the IX-cache) act on it.
        self.faults = None
        # One immutable compute step shared by every walk: traces only
        # ever read Access objects, so the hot loops skip an allocation
        # per visited node.
        self._search_step = Access("compute", cycles=self.sim.t_search)
        # Memoized namespace closures keyed by index_id (namespace_fn is
        # a pure function of the id, so sharing one closure per index is
        # behavior-identical to the scalar per-walk construction).
        self._ns_cache: dict[int, Callable[[int], int]] = {}

    def attach_faults(self, injector) -> None:
        """Wire a FaultInjector into the trace-generation path."""
        self.faults = injector

    def attach_obs(self, tracer, registry=None) -> None:
        """Wire tracing through this system and its cache components.

        Binds the system's :class:`CacheStats` (when it has one) under
        ``cache.<name>`` in the registry and propagates the tracer into
        the underlying cache models so their probe/insert/evict events
        flow into one buffer.
        """
        self.tracer = tracer
        if registry is not None:
            stats = self.cache_stats
            if stats is not None:
                registry.bind_stats(f"cache.{self.name}", stats, (
                    "accesses", "hits", "misses",
                    "insertions", "evictions", "bypasses",
                ))
        self._attach_components(tracer, registry)

    def _attach_components(self, tracer, registry=None) -> None:
        """Propagate the tracer into owned cache models (overridden)."""

    @abstractmethod
    def process_walk(self, index: Any, key: int) -> WalkTrace:
        """Produce the access trace for one point walk."""

    def process_range_scan(self, index: Any, lo: int, hi: int) -> WalkTrace:
        """Walk to ``lo`` then stream leaves through ``hi`` (Section 2.2).

        Range scans are the other half of the paper's access mix ("both
        range scans and point queries are common"). The walk to the low
        edge is cacheable; the leaf stream that follows is sequential and
        handled by :meth:`_scan_leaf` (DRAM by default — caches override
        to serve cached leaves on-chip).
        """
        trace = self.process_walk(index, lo)
        leaf = index.walk(lo)[-1]
        leaves = 0
        while leaf is not None and leaf.lo is not None and leaf.lo <= hi:
            if leaves > 0:  # the first leaf was fetched by the walk
                self._scan_leaf(index, leaf, trace.accesses)
                trace.nodes_visited += 1
            leaves += 1
            leaf = getattr(leaf, "next_leaf", None)
        return trace

    def _scan_leaf(self, index: Any, leaf: IndexNode, accesses: list[Access]) -> None:
        for addr in _node_blocks(leaf):
            accesses.append(Access("dram", addr, BLOCK_SIZE))

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        """Emit one request chunk into a columnar ``TraceBatch``.

        ``prepared[i]`` is ``(planner, positions_row)`` when the batch
        planner resolved request ``i``'s walk vectorized, else None.
        The base implementation is the exact scalar fallback — one
        WalkTrace per request, converted by ``TraceBatch.add_trace`` —
        so order-sensitive systems (FA-OPT replay, the L2 hierarchy)
        and range scans stay byte-identical without native emitters.
        Subclasses with native emitters must preserve per-request cache
        mutation order exactly.
        """
        for request in requests:
            self._fallback_walk(batch, request)

    def _fallback_walk(self, batch: Any, request: Any) -> None:
        """Scalar trace generation for one request, columnarized."""
        if request.scan_hi is not None:
            trace = self.process_range_scan(
                request.index, request.key, request.scan_hi
            )
        else:
            trace = self.process_walk(request.index, request.key)
        batch.add_trace(trace, request)

    def _ns_for(self, index: Any) -> Callable[[int], int]:
        index_id = getattr(index, "index_id", 0)
        ns = self._ns_cache.get(index_id)
        if ns is None:
            ns = namespace_fn(index)
            self._ns_cache[index_id] = ns
        return ns

    @property
    def cache_stats(self) -> CacheStats | None:
        return None


class StreamingMemSys(MemorySystem):
    """No index reuse: each visited node is a DRAM fetch (Aurochs/SJoin)."""

    name = "stream"

    def process_walk(self, index: Any, key: int) -> WalkTrace:
        path = index.walk(key)
        accesses: list[Access] = []
        append = accesses.append
        search = self._search_step
        for node in path:
            for addr in _blocks_for(node.address, node.nbytes):
                append(Access("dram", addr, BLOCK_SIZE))
            append(search)
        return WalkTrace(key, accesses, start_level=0, nodes_visited=len(path))

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        t_search = self.sim.t_search
        for request, prep in zip(requests, prepared):
            if prep is None:
                self._fallback_walk(batch, request)
                continue
            planner, row = prep
            planner.emit(batch, row, t_search)
            batch.finish_walk(request, 0, planner.height, False, False)


class AddressCacheMemSys(MemorySystem):
    """Conventional address cache in front of DRAM (Widx / MAD style).

    ``prefetch=True`` adds a next-line prefetcher (the classic linked-data
    mitigation the related work surveys): every demand miss also pulls the
    following block. It helps multi-block nodes but cannot predict the
    data-dependent child pointer — exactly the limitation the paper's
    walks expose.
    """

    name = "address"

    def __init__(
        self,
        sim: SimParams | None = None,
        cache_params: CacheParams | None = None,
        prefetch: bool = False,
    ) -> None:
        super().__init__(sim)
        self.cache = AddressCache(cache_params)
        self.prefetch = prefetch
        if prefetch:
            self.name = "address_pf"

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.cache.attach_obs(tracer, registry)

    def process_walk(self, index: Any, key: int) -> WalkTrace:
        path = index.walk(key)
        accesses: list[Access] = []
        append = accesses.append
        search = self._search_step
        probe_cycles = self.sim.t_addr_probe
        lookup = self.cache.lookup
        insert = self.cache.insert
        prefetch = self.prefetch
        for node in path:
            for block_addr in _blocks_for(node.address, node.nbytes):
                append(Access(
                    "sram", cycles=probe_cycles,
                    port=block_addr // BLOCK_SIZE,
                ))
                if not lookup(block_addr):
                    append(Access("dram", block_addr, BLOCK_SIZE))
                    insert(block_addr)
                    if prefetch:
                        nxt = block_addr + BLOCK_SIZE
                        if not self.cache.contains(nxt):
                            append(Access("dram_prefetch", nxt, BLOCK_SIZE))
                            insert(nxt)
            append(search)
        return WalkTrace(key, accesses, start_level=0, nodes_visited=len(path))

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        t_probe = self.sim.t_addr_probe
        t_search = self.sim.t_search
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        lookup = self.cache.lookup
        insert = self.cache.insert
        contains = self.cache.contains
        prefetch = self.prefetch
        block_size = BLOCK_SIZE
        for request, prep in zip(requests, prepared):
            if prep is None:
                self._fallback_walk(batch, request)
                continue
            planner, row = prep
            index_dram = 0
            for level, pos in enumerate(row):
                for block_addr in planner.blocks(level, pos):
                    kinds.append(K_SRAM)
                    a1.append(block_addr // block_size)
                    a2.append(t_probe)
                    if not lookup(block_addr):
                        kinds.append(K_DRAM)
                        a1.append(block_addr)
                        a2.append(0)
                        index_dram += 1
                        insert(block_addr)
                        if prefetch:
                            nxt = block_addr + block_size
                            if not contains(nxt):
                                kinds.append(K_PREFETCH)
                                a1.append(nxt)
                                a2.append(0)
                                insert(nxt)
                kinds.append(K_LATENCY)
                a1.append(t_search)
                a2.append(0)
            batch.index_dram += index_dram
            batch.finish_walk(request, 0, planner.height, False, False)

    def _scan_leaf(self, index: Any, leaf: IndexNode, accesses: list[Access]) -> None:
        for block_addr in _node_blocks(leaf):
            accesses.append(Access(
                "sram", cycles=self.sim.t_addr_probe,
                port=block_addr // BLOCK_SIZE,
            ))
            if not self.cache.lookup(block_addr):
                accesses.append(Access("dram", block_addr, BLOCK_SIZE))
                self.cache.insert(block_addr)


class HierarchyMemSys(MemorySystem):
    """Two-level (L1 + shared L2) address hierarchy baseline.

    A stronger conventional strawman than the flat address cache: walkers
    get a fast private-ish L1 backed by the shared L2. Walks still
    serialize level by level; only the per-level service latency changes.
    """

    name = "address_l2"

    def __init__(
        self,
        sim: SimParams | None = None,
        cache_params: CacheParams | None = None,
    ) -> None:
        super().__init__(sim)
        from repro.mem.hierarchy import CacheHierarchy, HierarchyParams

        if cache_params is not None:
            # Split the budget 1:7 between L1 and L2 (typical ratio).
            l1_bytes = max(BLOCK_SIZE * 4, cache_params.capacity_bytes // 8)
            params = HierarchyParams(
                l1=CacheParams(capacity_bytes=l1_bytes, ways=4, t_hit=2),
                l2=CacheParams(
                    capacity_bytes=max(BLOCK_SIZE * 4,
                                       cache_params.capacity_bytes - l1_bytes),
                    ways=cache_params.ways,
                    t_hit=14,
                ),
            )
            self.hierarchy = CacheHierarchy(params)
        else:
            self.hierarchy = CacheHierarchy()

    @property
    def cache_stats(self) -> CacheStats:
        # Report the L2 (shared level) statistics: the L1 is a latency
        # filter, capacity behaviour lives in the L2.
        return self.hierarchy.l2.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.hierarchy.l1.attach_obs(tracer, registry, prefix="cache.address_l1")
        self.hierarchy.l2.attach_obs(tracer, registry)

    def process_walk(self, index: Any, key: int) -> WalkTrace:
        path = index.walk(key)
        accesses: list[Access] = []
        append = accesses.append
        search = self._search_step
        hierarchy = self.hierarchy
        lookup = hierarchy.lookup
        l1_cycles = hierarchy.latency_of(1)
        l2_cycles = hierarchy.latency_of(2)
        miss_cycles = hierarchy.miss_latency_cycles
        for node in path:
            for block_addr in _blocks_for(node.address, node.nbytes):
                level = lookup(block_addr)
                if level == 1:
                    append(Access("sram", cycles=l1_cycles))
                elif level == 2:
                    append(Access(
                        "sram", cycles=l2_cycles,
                        port=block_addr // BLOCK_SIZE,
                    ))
                else:
                    append(Access(
                        "sram", cycles=miss_cycles,
                        port=block_addr // BLOCK_SIZE,
                    ))
                    append(Access("dram", block_addr, BLOCK_SIZE))
                    hierarchy.insert(block_addr)
            append(search)
        return WalkTrace(key, accesses, start_level=0, nodes_visited=len(path))


class FAOPTMemSys(MemorySystem):
    """Fully-associative address cache with Belady-OPT replacement.

    Built via :meth:`prepare` from the complete walk sequence; walks must
    then be processed in exactly that order.
    """

    name = "fa_opt"

    def __init__(
        self,
        walk_blocks: list[Sequence[int]],
        hit_flags: list[bool],
        sim: SimParams | None = None,
    ) -> None:
        super().__init__(sim)
        self._walk_blocks = walk_blocks
        self._flags = hit_flags
        self._walk_cursor = 0
        self._flag_cursor = 0
        self.stats = CacheStats()

    @classmethod
    def prepare(
        cls,
        requests: Iterable[tuple[Any, int]],
        cache_params: CacheParams | None = None,
        sim: SimParams | None = None,
    ) -> "FAOPTMemSys":
        """Two-pass construction from (index, key) walk requests.

        Walks over SoA indexes resolve through the batch planner's
        vectorized positions; the block sequence of a walk depends only
        on its leaf (the root-to-leaf path is unique), so walks sharing
        a leaf share one tuple. Other indexes walk scalar.
        """
        from repro.sim.batch import _planner_for  # avoid an import cycle

        params = cache_params or CacheParams()
        pairs = list(requests)
        walk_blocks: list[Sequence[int]] = [()] * len(pairs)
        planners: dict[int, Any] = {}
        groups: dict[int, tuple[Any, list[int]]] = {}
        for i, (index, key) in enumerate(pairs):
            planner = _planner_for(index, planners)
            if planner is None:
                walk_blocks[i] = [
                    addr // BLOCK_SIZE
                    for node in index.walk(key)
                    for addr in _node_blocks(node)
                ]
            else:
                groups.setdefault(id(index), (planner, []))[1].append(i)
        for planner, members in groups.values():
            keys = np.fromiter(
                (pairs[i][1] for i in members), dtype=np.int64,
                count=len(members),
            )
            rows = planner.positions(keys)
            by_leaf: dict[int, tuple[int, ...]] = {}
            for j, leaf in enumerate(rows[:, -1].tolist()):
                blocks = by_leaf.get(leaf)
                if blocks is None:
                    blocks = tuple(
                        addr // BLOCK_SIZE
                        for level, pos in enumerate(rows[j].tolist())
                        for addr in planner.blocks(level, pos)
                    )
                    by_leaf[leaf] = blocks
                walk_blocks[members[j]] = blocks
        flat = np.fromiter(chain.from_iterable(walk_blocks), dtype=np.int64)
        flags = belady_hit_flags(flat, params.entries)
        return cls(walk_blocks, flags, sim)

    @property
    def cache_stats(self) -> CacheStats:
        return self.stats

    def process_walk(self, index: Any, key: int) -> WalkTrace:
        if self._walk_cursor >= len(self._walk_blocks):
            raise IndexError("FA-OPT replayed more walks than prepared")
        blocks = self._walk_blocks[self._walk_cursor]
        self._walk_cursor += 1
        accesses: list[Access] = []
        for block in blocks:
            # Fully-associative lookup = CAM match across every entry.
            accesses.append(Access(
                "sram", cycles=self.sim.t_fa_probe, port=block,
            ))
            hit = self._flags[self._flag_cursor]
            self._flag_cursor += 1
            self.stats.record(hit)
            if self.tracer.enabled:
                self.tracer.emit("opt_probe", block=block, hit=hit)
            if not hit:
                self.stats.insertions += 1
                accesses.append(Access("dram", block * BLOCK_SIZE, BLOCK_SIZE))
            accesses.append(self._search_step)
        return WalkTrace(key, accesses, start_level=0, nodes_visited=len(blocks))

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        # process_walk's emission straight from the precomputed OPT
        # flags: same entries, same stats, no WalkTrace. Range scans go
        # through the scalar fallback, which advances the same cursors.
        t_probe = self.sim.t_fa_probe
        t_search = self.sim.t_search
        data_base = batch.data_base
        walk_blocks = self._walk_blocks
        flags = self._flags
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        hits = 0
        misses = 0
        for request in requests:
            if request.scan_hi is not None:
                self._fallback_walk(batch, request)
                continue
            cursor = self._walk_cursor
            if cursor >= len(walk_blocks):
                raise IndexError("FA-OPT replayed more walks than prepared")
            self._walk_cursor = cursor + 1
            blocks = walk_blocks[cursor]
            fc = self._flag_cursor
            self._flag_cursor = fc + len(blocks)
            index_dram = 0
            for block in blocks:
                kinds.append(K_SRAM)
                a1.append(block)
                a2.append(t_probe)
                if flags[fc]:
                    hits += 1
                else:
                    misses += 1
                    address = block * BLOCK_SIZE
                    kinds.append(K_DRAM)
                    a1.append(address)
                    a2.append(0)
                    if address < data_base:
                        index_dram += 1
                fc += 1
                kinds.append(K_LATENCY)
                a1.append(t_search)
                a2.append(0)
            batch.index_dram += index_dram
            batch.finish_walk(request, 0, len(blocks), False, False)
        stats = self.stats
        stats.accesses += hits + misses
        stats.hits += hits
        stats.misses += misses
        stats.insertions += misses


class XCacheMemSys(MemorySystem):
    """X-cache: leaf cache tagged by application key."""

    name = "xcache"

    def __init__(
        self, sim: SimParams | None = None, cache_params: CacheParams | None = None
    ) -> None:
        super().__init__(sim)
        from repro.mem.xcache import XCache

        self.cache = XCache(cache_params)

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.cache.attach_obs(tracer, registry)

    def process_walk(self, index: Any, key: int) -> WalkTrace:
        ns = namespace_fn(index)
        accesses: list[Access] = [
            Access("sram", cycles=self.sim.t_addr_probe, port=hash(ns(key)) & 0xFFFF)
        ]
        leaf = self.cache.lookup(ns(key))
        if leaf is not None:
            # Fast path: the whole walk is short-circuited.
            return WalkTrace(
                key,
                accesses,
                start_level=getattr(leaf, "level", 0),
                nodes_visited=0,
                short_circuited=True,
                full_hit=True,
            )
        path = index.walk(key)
        append = accesses.append
        search = self._search_step
        for node in path:
            for addr in _blocks_for(node.address, node.nbytes):
                append(Access("dram", addr, BLOCK_SIZE))
            append(search)
        self.cache.insert(ns(key), path[-1])
        return WalkTrace(key, accesses, start_level=0, nodes_visited=len(path))

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        t_probe = self.sim.t_addr_probe
        t_search = self.sim.t_search
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        lookup = self.cache.lookup
        insert = self.cache.insert
        for request, prep in zip(requests, prepared):
            if prep is None:
                self._fallback_walk(batch, request)
                continue
            planner, row = prep
            ns = self._ns_for(request.index)
            ns_key = ns(request.key)
            kinds.append(K_SRAM)
            a1.append(hash(ns_key) & 0xFFFF)
            a2.append(t_probe)
            leaf = lookup(ns_key)
            if leaf is not None:
                # Fast path: the whole walk is short-circuited.
                batch.finish_walk(
                    request, getattr(leaf, "level", 0), 0, True, True
                )
                continue
            planner.emit(batch, row, t_search)
            insert(ns_key, planner.view(planner.height - 1, row[-1]))
            batch.finish_walk(request, 0, planner.height, False, False)


class MetalMemSys(MemorySystem):
    """METAL / METAL-IX: IX-cache probe + pattern-directed insertions."""

    def __init__(self, policy: MetalIX, sim: SimParams | None = None) -> None:
        super().__init__(sim)
        self.policy = policy
        self.name = policy.name
        self._tracked: set[int] = set()

    @property
    def cache_stats(self) -> CacheStats:
        return self.policy.stats

    def _attach_components(self, tracer, registry=None) -> None:
        self.policy.attach_obs(tracer, registry)

    def _track(self, index: Any) -> None:
        """Subscribe to the index's structural changes for invalidation."""
        index_id = getattr(index, "index_id", None)
        if index_id is None or index_id in self._tracked:
            return
        self._tracked.add(index_id)
        hooks = getattr(index, "on_structural_change", None)
        if hooks is None:
            return
        ns = namespace_fn(index)

        def invalidate(lo: Any, hi: Any) -> None:
            self.policy.cache.invalidate_range(ns(lo), ns(hi))

        hooks.append(invalidate)

    def process_walk(self, index: Any, key: int) -> WalkTrace:
        self._track(index)
        ns = namespace_fn(index)
        height = index.height
        faults = self.faults
        if faults is not None and faults.storm():
            # Invalidation storm: a span of key blocks around the probed
            # key is invalidated wholesale (coherence storm / spurious
            # structural-change signal), forcing re-misses.
            cache = self.policy.cache
            span = faults.plan.storm_span_blocks << cache.key_block_bits
            center = ns(key)
            faults.stats.storm_evictions += cache.invalidate_range(
                max(0, center - span), center + span
            )
        self.policy.begin_walk(index.index_id, key)
        accesses: list[Access] = [
            Access("sram", cycles=self.sim.t_ix_probe,
                   port=self.policy.cache.set_of(ns(key)))
        ]
        start = self.policy.probe(ns(key))
        if start is not None and faults is not None and faults.tag_corrupted():
            # The matched range tag failed its integrity check: trust
            # nothing it covers — invalidate the entry and refetch via a
            # full root-to-leaf walk (detected, recovered, accounted).
            self.policy.cache.invalidate_range(ns(key), ns(key))
            faults.stats.tag_refetches += 1
            start = None
        if start is not None and not start.covers(key):
            # Stale hit: the index mutated under us and no invalidation
            # hook was wired. Fall back to a full walk.
            start = None
        path = None
        if start is not None:
            try:
                path = index.walk_from(start, key)
            except KeyError:
                # Stale node no longer part of the structure (rebuilt).
                path = None
        if path is not None and start is not None:
            remaining = path[1:]  # the cached node itself is on-chip
            start_level = start.level
            short = True
            if self.tracer.enabled:
                self.tracer.emit("ix_short_circuit", key=key,
                                 level=start_level, skipped=start_level)
        else:
            path = index.walk(key)
            remaining = path
            start_level = 0
            short = False
        append = accesses.append
        search = self._search_step
        consider = self.policy.consider
        index_id = index.index_id
        ns_key = ns(key)
        for position, node in enumerate(remaining):
            for addr in _blocks_for(node.address, node.nbytes):
                append(Access("dram", addr, BLOCK_SIZE))
            append(search)
            consider(
                index_id, node, height, ns, WalkContext(short, position),
                key=ns_key,
            )
        self.policy.end_walk()
        return WalkTrace(
            key,
            accesses,
            start_level=start_level,
            nodes_visited=len(remaining),
            short_circuited=short,
            full_hit=short and not remaining,
        )

    def process_chunk(self, batch: Any, requests: list[Any], prepared: list[Any]) -> None:
        # The scalar probe/consider/end_walk pipeline with the dispatch
        # chain (MetalIX.consider -> PatternController.decide ->
        # descriptor.decide) inlined: same calls on the same state in the
        # same order, minus two Python frames per visited node.
        policy = self.policy
        cache = policy.cache
        cache_insert = cache.insert
        cache_stats = cache.stats
        cache_tracer = cache.tracer
        # Replacement-policy dispatch, hoisted like the rest: the default
        # keeps its inlined counter bump; other policies get their on_hit.
        default_policy = cache._default_policy
        policy_on_hit = cache.policy.on_hit
        sets = cache._sets
        wide = cache._wide
        kbb = cache.key_block_bits
        num_sets = cache.num_sets
        hit_levels = cache.hit_levels
        controller = policy.controller
        ctrl_tracer = controller.tracer if controller is not None else None
        t_probe = self.sim.t_ix_probe
        t_search = self.sim.t_search
        block_bytes = cache.params.block_bytes
        tracked = self._tracked
        ns_cache = self._ns_cache
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        cur_planner = None  # memoized map lookups (one index per chunk
        cur_index = -1      # in the common case)
        wt_map: Any = None
        packed_map: Any = None
        # Batch counters accumulated locally, flushed once after the loop.
        accesses = 0
        hits = 0
        index_dram = 0
        for request, prep in zip(requests, prepared):
            if prep is None:
                self._fallback_walk(batch, request)
                continue
            planner, row = prep
            index = request.index
            key = request.key
            index_id = index.index_id
            if index_id not in tracked:
                self._track(index)
            ns = ns_cache.get(index_id)
            if ns is None:
                ns = self._ns_for(index)
            height = planner.height
            if controller is not None:
                descriptor = controller._by_index.get(
                    index_id, controller._default
                )
                if descriptor is not None:
                    descriptor.observe_key(key)
            else:
                descriptor = None
            ns_key = ns(key)
            kinds.append(K_SRAM)
            set_idx = (ns_key >> kbb) % num_sets
            a1.append(set_idx)
            a2.append(t_probe)
            # IXCache.probe inlined (same scans, same tie-break, same
            # stats/utility updates; counters flushed after the loop).
            candidates = []
            for entry in sets[set_idx]:
                tag = entry.tag
                if tag.lo <= ns_key <= tag.hi:
                    candidates.append(entry)
            for entry in wide:
                tag = entry.tag
                if tag.lo <= ns_key <= tag.hi:
                    candidates.append(entry)
            start = None
            accesses += 1
            if candidates:
                if len(candidates) > 1:
                    candidates.sort(key=_entry_level, reverse=True)
                for entry in candidates:
                    for part_tag, part_node in entry.parts:
                        if part_tag.lo <= ns_key <= part_tag.hi:
                            start = part_node
                            break
                    if start is not None:
                        hits += 1
                        if default_policy:
                            if entry.utility < _UTILITY_MAX:
                                entry.utility += 1
                        else:
                            policy_on_hit(entry)
                        if entry.life > 0:
                            entry.life -= 1
                        hit_levels[entry.tag.level] += 1
                        break
            if cache_tracer.enabled:
                cache_tracer.emit("ix_probe", key=ns_key,
                                  hit=start is not None)
                if start is not None:
                    cache_tracer.emit("ix_hit", key=ns_key,
                                      level=entry.tag.level)
            if start is not None and start.covers(key):
                # A covering cached node is exactly the node the full
                # walk routes through at its level (sibling ranges are
                # disjoint and a parent's range covers its children's),
                # so the rest of the path is the positions row below it
                # — the scalar ``walk_from`` without the per-level
                # ``child_for`` chain. The SoA tree is read-only, so
                # the scalar path's stale-node KeyError cannot occur.
                start_level = start.level
                base_level = start_level + 1
                short = True
                ctx_row = _CTX_SHORT
            else:
                start_level = 0
                base_level = 0
                short = False
                ctx_row = _CTX_FULL
            if planner is not cur_planner or index_id != cur_index:
                cur_planner = planner
                cur_index = index_id
                wt_map = planner.walk_template_map(t_search)
                packed_map = planner.packed_map(index_id, block_bytes)
            wt_key = (base_level, row[-1])
            wt = wt_map.get(wt_key)
            if wt is None:
                wt = planner.build_walk_template(base_level, row, t_search)
                wt_map[wt_key] = wt
            kinds += wt[0]
            a1 += wt[1]
            a2 += wt[2]
            index_dram += wt[3]
            nodes = wt[4]
            if descriptor is None:
                # Greedy insert-all (METAL-IX, or no governing
                # descriptor): PatternController.decide returns
                # INSERT_ALL without counting insertions.
                for node in nodes:
                    packed = packed_map.get(node)
                    if packed is None:
                        packed = pack_node(node, ns, block_bytes)
                        packed_map[node] = packed
                    cache_insert(node, ns, key=ns_key, packed=packed)
            elif type(descriptor) is LevelDescriptor:
                # LevelDescriptor.decide inlined: it only ever returns the
                # two life-0 singletons, and tune() runs between walks, so
                # the band bounds are constants for this request. Same
                # checks, same TouchFilter.admit call order.
                insertions = controller._insertions_by_level
                ctrl_enabled = ctrl_tracer.enabled
                d_start = descriptor.start
                d_end = descriptor.end
                d_mid = (d_start + d_end + 1) // 2 + 1
                frontier_walk = short and descriptor.frontier
                admit = descriptor._filter.admit
                position = 0
                for node in nodes:
                    level = node.level
                    if level < d_start or level > d_end or level >= height:
                        ins = False
                    elif frontier_walk:
                        ins = position == 0 and admit(node.node_id)
                    else:
                        ins = level < d_mid or admit(node.node_id)
                    position += 1
                    if ins:
                        insertions[level] += 1
                        if ctrl_enabled:
                            ctrl_tracer.emit(
                                "desc_decision", level=level,
                                insert=True, life=0)
                        packed = packed_map.get(node)
                        if packed is None:
                            packed = pack_node(node, ns, block_bytes)
                            packed_map[node] = packed
                        cache_insert(node, ns, key=ns_key, packed=packed)
                    else:
                        if ctrl_enabled:
                            ctrl_tracer.emit(
                                "desc_decision", level=level,
                                insert=False, life=0)
                        cache_stats.bypasses += 1
                        if cache_tracer.enabled:
                            cache_tracer.emit("ix_bypass", reason="pattern")
            else:
                insertions = controller._insertions_by_level
                ctrl_enabled = ctrl_tracer.enabled
                decide = descriptor.decide
                position = 0
                for node in nodes:
                    level = node.level
                    ctx = (ctx_row[position] if position < _CTX_MAX
                           else WalkContext(short, position))
                    position += 1
                    decision = decide(node, height, ctx)
                    if decision.insert:
                        insertions[level] += 1
                        if ctrl_enabled:
                            ctrl_tracer.emit(
                                "desc_decision", level=level,
                                insert=True, life=decision.life)
                        packed = packed_map.get(node)
                        if packed is None:
                            packed = pack_node(node, ns, block_bytes)
                            packed_map[node] = packed
                        cache_insert(node, ns, life=decision.life,
                                     key=ns_key, packed=packed)
                    else:
                        if ctrl_enabled:
                            ctrl_tracer.emit(
                                "desc_decision", level=level,
                                insert=False, life=decision.life)
                        cache_stats.bypasses += 1
                        if cache_tracer.enabled:
                            cache_tracer.emit("ix_bypass", reason="pattern")
            if controller is not None:
                walks = controller._walks_in_batch + 1
                controller._walks_in_batch = walks
                if walks >= controller.batch_walks:
                    # The batch feedback reads the live cache stats.
                    cache_stats.accesses += accesses
                    cache_stats.hits += hits
                    cache_stats.misses += accesses - hits
                    accesses = hits = 0
                    controller._finish_batch()
            batch.finish_walk(
                request, start_level, len(nodes), short, short and not nodes
            )
        cache_stats.accesses += accesses
        cache_stats.hits += hits
        cache_stats.misses += accesses - hits
        batch.index_dram += index_dram

    def _scan_leaf(self, index: Any, leaf: IndexNode, accesses: list[Access]) -> None:
        ns = namespace_fn(index)
        accesses.append(Access(
            "sram", cycles=self.sim.t_ix_probe,
            port=self.policy.cache.set_of(ns(leaf.lo)) if leaf.lo is not None else -1,
        ))
        if leaf.lo is not None and self.policy.cache.peek(ns(leaf.lo)) is leaf:
            return  # leaf already resident: served on-chip
        for addr in _node_blocks(leaf):
            accesses.append(Access("dram", addr, BLOCK_SIZE))
        self.policy.consider(
            index.index_id, leaf, index.height, ns,
            WalkContext(True, 0), key=ns(leaf.lo) if leaf.lo is not None else None,
        )


def make_memsys(
    kind: str,
    sim: SimParams | None = None,
    cache_params: CacheParams | None = None,
    descriptors: Any = None,
    requests: Sequence[tuple[Any, int]] | None = None,
    batch_walks: int = 1_000,
    tune: bool = True,
    **metal_kwargs,
) -> MemorySystem:
    """Factory over every organization the evaluation compares.

    ``descriptors`` is required for ``metal``; ``requests`` is required for
    ``fa_opt`` (the two-pass OPT construction).
    """
    if kind == "stream":
        return StreamingMemSys(sim)
    if kind == "address":
        return AddressCacheMemSys(sim, cache_params)
    if kind == "address_pf":
        return AddressCacheMemSys(sim, cache_params, prefetch=True)
    if kind == "address_l2":
        return HierarchyMemSys(sim, cache_params)
    if kind == "fa_opt":
        if requests is None:
            raise ValueError("fa_opt needs the full request sequence")
        return FAOPTMemSys.prepare(requests, cache_params, sim)
    if kind == "xcache":
        return XCacheMemSys(sim, cache_params)
    if kind == "metal_ix":
        return MetalMemSys(MetalIX(cache_params, **metal_kwargs), sim)
    if kind == "metal":
        if descriptors is None:
            raise ValueError("metal needs reuse descriptors")
        policy = Metal(
            descriptors, cache_params, batch_walks=batch_walks, tune=tune, **metal_kwargs
        )
        return MetalMemSys(policy, sim)
    raise ValueError(f"unknown memory system kind {kind!r}")
