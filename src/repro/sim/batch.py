"""Vectorized batch pipeline: columnar traces + numpy walk generation.

The scalar path in :mod:`repro.sim.metrics` materializes one
:class:`~repro.sim.engine.Access` object per timed step — roughly ten
objects per walk — and re-derives every node footprint and DRAM bank
split inside the event loop. This module replaces that representation
for every timed, untraced, fault-free run:

* :class:`TraceBatch` — the columnar access stream, emitted one chunk
  of walks at a time into parallel ``kinds``/``a1``/``a2`` int lists and
  sealed after each chunk into compact int event rows with the block
  -> (bank, row) decomposition done (``DRAM.decompose``), consumed by
  ``Engine.run_batch``.
* :class:`BatchWalkPlanner` — numpy walk generation over the SoA
  B+tree (:meth:`~repro.indexes.soa.SoABPlusTree.batch_positions`):
  one ``searchsorted`` per level per key chunk instead of one per
  (key, node), plus memoized per-node emission templates.
* :func:`simulate_batched` — what :func:`repro.sim.metrics.simulate`
  runs when neither tracing nor fault injection is on.

Byte-identity with the scalar path is a hard contract: every field of
``RunResult.to_dict()`` — makespan, DRAM stats (including float energy,
accumulated in the same event order), cache stats, working-set metrics,
histograms — matches the scalar walk + general engine loop bit for bit.
``tests/test_vector_equivalence.py`` and the CI
``vectorized-equivalence`` job enforce it across all six systems.

Indexes without SoA level arrays (the object backend, skip lists,
radix tables) and range-scan requests fall back to the scalar trace
generators per request and are converted into the columnar stream by
:meth:`TraceBatch.add_trace`, so mixed workloads stay exact.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.mem.dram import DRAM
from repro.mem.layout import Allocator
from repro.obs.histogram import Histogram
from repro.params import BLOCK_SIZE, SimParams
from repro.sim.engine import Engine, K_DRAM, K_LATENCY, K_PREFETCH, K_SRAM
from repro.sim.memsys import MemorySystem, _blocks_for, _node_blocks
from repro.sim.metrics import RunResult
from repro.workloads.stream import chunked

#: Event-row values below this magnitude are stored as int32.
_INT32 = 1 << 31

#: Memoized small tuples for template assembly: a node with ``nb``
#: blocks always emits ``nb`` DRAM entries plus one search step.
_KIND_TUPLES: dict[int, tuple[int, ...]] = {}
_ZERO_TUPLES: dict[int, tuple[int, ...]] = {}


def _kinds_tuple(nb: int) -> tuple[int, ...]:
    t = _KIND_TUPLES.get(nb)
    if t is None:
        t = (K_DRAM,) * nb + (K_LATENCY,)
        _KIND_TUPLES[nb] = t
    return t


def _zeros_tuple(n: int) -> tuple[int, ...]:
    t = _ZERO_TUPLES.get(n)
    if t is None:
        t = (0,) * n
        _ZERO_TUPLES[n] = t
    return t


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a non-negative int array.

    ``np.unique`` without its lazy ``numpy.ma`` import, which would add
    to every process that runs a simulation.
    """
    codes = np.sort(codes)
    return codes[np.diff(codes, prepend=-1) != 0]


class TraceBatch:
    """Columnar access stream for one run: the batch twin of WalkTrace.

    Emitters append to the *pending* chunk: parallel lists holding one
    small int per timed step — ``kinds`` is the K_* code, ``a1``/``a2``
    the operands (address + write flag for DRAM, port + service cycles
    for SRAM, cycles for latency-only steps) — with
    ``offsets[i]:offsets[i+1]`` delimiting the chunk's walk ``i``.
    Multi-block extents (data-object fetches) are pre-expanded to one
    entry per 64B block, exactly the per-offset loop the scalar engine
    runs. :meth:`seal` encodes the pending chunk into compact int
    event rows for one engine and empties the lists, so a run never
    holds more than one chunk of Python-level entries.
    """

    __slots__ = (
        "kinds", "a1", "a2", "offsets", "start_levels", "visits",
        "index_dram", "short_circuited", "full_hits", "nodes_visited",
        "data_base", "window", "mem_count", "writes", "sram_count",
        "touched_blocks", "_events", "_offsets", "_leads", "_ws_codes",
        "_walks", "_rows", "_geometry",
    )

    def __init__(self, window: int = 2_000) -> None:
        self.kinds: list[int] = []
        self.a1: list[int] = []
        self.a2: list[int] = []
        self.offsets: list[int] = [0]
        self.start_levels: list[int] = []
        self.visits: list[int] = []
        self.index_dram = 0
        self.short_circuited = 0
        self.full_hits = 0
        self.nodes_visited = 0
        self.data_base = Allocator.DATA_BASE
        #: Walks per working-set window (``windowed_working_set``).
        self.window = window
        # Aggregates of the sealed stream, applied by Engine.run_batch.
        self.mem_count = 0
        self.writes = 0
        self.sram_count = 0
        self.touched_blocks: set[int] = set()
        # Sealed chunks: event rows, walk offsets into them (past the
        # leading 0), folded leading latencies, working-set codes.
        self._events: list[np.ndarray] = [np.zeros((0, 4), dtype=np.int32)]
        self._offsets: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        self._leads: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self._ws_codes: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self._walks = 0
        self._rows = 0
        self._geometry: tuple | None = None

    def seal(self, engine: Any) -> None:
        """Encode the pending chunk into event rows for ``engine``.

        Each kept entry becomes one ``(kind, p1, p2, delay)`` int row:
        p1/p2 are the DRAM bank and row (``DRAM.decompose``), the
        crossbar port and service cycles, or the cycles of a latency
        step. Latency-only entries touch no shared state, so any that
        are not the last entry of their walk fold into the ``delay`` of
        the entry before them (or the walk's leading delay); trailing
        ones stay real events, since they define the walk's completion
        time. ``Engine.run_batch`` adds a delay when it re-files the
        context, so the next entry still executes at its original cycle
        in its original calendar bucket. The chunk's DRAM/crossbar
        counts, touched blocks and working-set pairs are accumulated
        here too, and the pending lists are emptied. Rows are only valid
        for one DRAM/crossbar geometry; sealing (or running) for another
        raises ValueError.
        """
        geometry = (engine.dram.params, engine.xbar.params.ports)
        if self._geometry is None:
            self._geometry = geometry
        elif geometry != self._geometry:
            raise ValueError(
                "TraceBatch was sealed for a different DRAM/crossbar geometry"
            )
        nwc = len(self.offsets) - 1
        if nwc == 0:
            return
        kinds = np.array(self.kinds, dtype=np.int64)
        a1 = np.array(self.a1, dtype=np.int64)
        a2 = np.array(self.a2, dtype=np.int64)
        off = np.array(self.offsets, dtype=np.int64)
        self.kinds.clear()
        self.a1.clear()
        self.a2.clear()
        del self.offsets[1:]
        n = len(kinds)

        dram = engine.dram
        is_mem = kinds <= K_PREFETCH
        is_dram = kinds == K_DRAM
        is_sram = kinds == K_SRAM
        banks, rows = dram.decompose(a1)
        p1 = np.where(
            is_mem, banks,
            np.where(is_sram, a1 % engine.xbar.params.ports, a1),
        )
        p2 = np.where(is_mem, rows, a2)
        self.mem_count += int(is_mem.sum())
        self.writes += int((is_dram & (a2 != 0)).sum())
        self.sram_count += int(is_sram.sum())
        self.touched_blocks.update((a1[is_mem] // BLOCK_SIZE).tolist())

        # Working-set pairs: (window, block) of every index-region DRAM
        # entry. Index blocks sit below DATA_BASE // 64 < 2**25; window
        # ids fit alongside them in an int64 without collision.
        is_index = is_dram & (a1 < self.data_base)
        walk_of = np.repeat(
            np.arange(self._walks, self._walks + nwc, dtype=np.int64),
            np.diff(off),
        )
        self._ws_codes.append(_distinct(
            ((walk_of[is_index] // self.window) << 36)
            | (a1[is_index] // BLOCK_SIZE)
        ))

        is_last = np.zeros(n, dtype=bool)
        is_last[off[1:][off[1:] > 0] - 1] = True
        keep = (kinds != K_LATENCY) | is_last
        # pre[j]: folded latency between kept entry j-1 and kept entry j.
        ecs = np.concatenate(([0], np.cumsum(np.where(keep, 0, a1))))
        kept_idx = np.nonzero(keep)[0]
        pre = np.diff(ecs[kept_idx], prepend=0)
        kept_off = np.concatenate(([0], np.cumsum(keep)))[off]
        starts = kept_off[:-1]
        nonempty = starts < kept_off[1:]
        leads = np.zeros(nwc, dtype=np.int64)
        leads[nonempty] = pre[starts[nonempty]]
        delay = np.zeros(len(kept_idx), dtype=np.int64)
        delay[:-1] = pre[1:]
        delay[kept_off[1:][nonempty] - 1] = 0
        events = np.stack((kinds[keep], p1[keep], p2[keep], delay), axis=1)
        if events.size and -_INT32 <= events.min() and events.max() < _INT32:
            # Rows are bank/row/port/cycle numbers: int32 halves the
            # stream's footprint whenever every value fits.
            events = events.astype(np.int32)
        self._events.append(events)
        self._offsets.append(kept_off[1:] + self._rows)
        self._leads.append(leads)
        self._walks += nwc
        self._rows += len(kept_idx)

    def sealed(self) -> tuple[np.ndarray, list[int], list[int]]:
        """(event rows, walk offsets, leading delays) of the sealed stream."""
        if len(self._events) > 1:
            self._events = [np.concatenate(self._events)]
        return (
            self._events[0],
            np.concatenate(self._offsets).tolist(),
            np.concatenate(self._leads).tolist(),
        )

    def windowed_working_set(self, total_index_blocks: int) -> float:
        """Vectorized twin of ``metrics._windowed_working_set``.

        Distinct index-region DRAM blocks per window of walks, averaged.
        Every DRAM entry is one 64B block, so distinct (window, block)
        pairs fall out of one sort over the per-chunk codes; the
        final fraction average runs in python floats, in window order,
        so the float result matches the scalar accumulation bit for bit.
        Call after the last :meth:`seal`.
        """
        num_walks = self._walks
        if total_index_blocks <= 0 or num_walks == 0:
            return 0.0
        codes = _distinct(np.concatenate(self._ws_codes))
        counts = np.bincount(codes >> 36, minlength=-(-num_walks // self.window))
        fractions = [
            min(1.0, count / total_index_blocks) for count in counts.tolist()
        ]
        return sum(fractions) / len(fractions)

    def finish_walk(
        self, request: Any, start_level: int, visited: int,
        short: bool, full: bool,
    ) -> None:
        """Close one walk: append its data/compute tail and metadata.

        Mirrors the scalar epilogue in ``simulate`` exactly — the
        data-object fetch and compute step land after the index trace
        and are never counted as index DRAM traffic. ``request=None``
        closes a walk that has no such tail.
        """
        if request is not None:
            kinds = self.kinds
            a1 = self.a1
            a2 = self.a2
            address = request.data_address
            if address is not None:
                nbytes = request.data_bytes
                if nbytes <= BLOCK_SIZE:
                    kinds.append(K_DRAM)
                    a1.append(address)
                    a2.append(0)
                else:
                    for offset in range(0, nbytes, BLOCK_SIZE):
                        kinds.append(K_DRAM)
                        a1.append(address + offset)
                        a2.append(0)
            if request.compute_cycles:
                kinds.append(K_LATENCY)
                a1.append(request.compute_cycles)
                a2.append(0)
        self.offsets.append(len(self.kinds))
        self.start_levels.append(start_level)
        self.visits.append(visited)
        self.nodes_visited += visited
        if short:
            self.short_circuited += 1
        if full:
            self.full_hits += 1

    def add_trace(self, trace: Any, request: Any = None) -> None:
        """Convert one scalar WalkTrace (the per-request fallback path).

        Index-region DRAM accesses are counted at Access granularity
        before the data/compute tail is appended — the same ordering the
        scalar accounting loop uses.
        """
        kinds = self.kinds
        a1 = self.a1
        a2 = self.a2
        data_base = self.data_base
        index_dram = 0
        for access in trace.accesses:
            kind = access.kind
            if kind == "dram":
                address = access.address
                if address < data_base:
                    index_dram += 1
                nbytes = access.nbytes
                w = 1 if access.write else 0
                if nbytes <= BLOCK_SIZE:
                    kinds.append(K_DRAM)
                    a1.append(address)
                    a2.append(w)
                else:
                    for offset in range(0, nbytes, BLOCK_SIZE):
                        kinds.append(K_DRAM)
                        a1.append(address + offset)
                        a2.append(w)
            elif kind == "sram":
                if access.port >= 0:
                    kinds.append(K_SRAM)
                    a1.append(access.port)
                    a2.append(access.cycles)
                else:
                    kinds.append(K_LATENCY)
                    a1.append(access.cycles)
                    a2.append(0)
            elif kind == "dram_prefetch":
                address = access.address
                nbytes = access.nbytes
                if nbytes <= BLOCK_SIZE:
                    kinds.append(K_PREFETCH)
                    a1.append(address)
                    a2.append(0)
                else:
                    for offset in range(0, nbytes, BLOCK_SIZE):
                        kinds.append(K_PREFETCH)
                        a1.append(address + offset)
                        a2.append(0)
            else:  # compute
                kinds.append(K_LATENCY)
                a1.append(access.cycles)
                a2.append(0)
        self.index_dram += index_dram
        self.finish_walk(
            request, trace.start_level, trace.nodes_visited,
            bool(trace.short_circuited), bool(trace.full_hit),
        )


class BatchWalkPlanner:
    """Numpy walk generation + per-node emission templates for one tree.

    Wraps a :class:`~repro.indexes.soa.SoABPlusTree`: ``positions``
    resolves a key chunk with one ``searchsorted`` per level;
    ``baseline`` vectorizes the streaming-DSA block-count denominator;
    ``template`` memoizes each node's (kinds, operands) emission so hot
    nodes append by tuple concatenation instead of re-deriving their
    block footprint per visit. Planners are cached on the tree, so
    repeated runs over one workload reuse every template.
    """

    __slots__ = (
        "tree", "height", "view", "_levels", "_level_offsets",
        "_block_counts", "_blocks", "_templates", "_walk_templates",
        "_packed",
    )

    def __init__(self, tree: Any) -> None:
        self.tree = tree
        self.height = tree.height
        self.view = tree._view
        self._levels = tree._levels
        self._level_offsets = [int(o) for o in tree._level_offsets]
        self._block_counts: list[np.ndarray | None] = [None] * self.height
        self._blocks: dict[int, tuple[int, ...]] = {}
        # Keyed by t_search: templates bake the search-step latency in.
        self._templates: dict[int, dict[int, tuple]] = {}
        self._walk_templates: dict[int, dict[tuple[int, int], tuple]] = {}
        # pack_node results per (index_id, block_bytes), keyed by node
        # view: packing is pure in the node's geometry and the index
        # namespace, and the SoA tree is immutable, so packed entry lists
        # can be reused across inserts (IXCache.insert never mutates the
        # supplied list).
        self._packed: dict[tuple[int, int], dict[Any, list]] = {}

    def positions(self, keys: np.ndarray) -> np.ndarray:
        return self.tree.batch_positions(keys)

    def _counts(self, level: int) -> np.ndarray:
        """Per-node touched-block counts for one level (lazy, vectorized).

        Replicates ``len(_blocks_for(address, nbytes))`` for aligned
        nodes: ``total = ceil(nbytes / 64)`` blocks, of which the walker
        touches ``min(total, 1 + bit_length(total - 1))`` (header +
        binary-search probes; the probe picks are distinct by
        construction). ``frexp`` exponents are exact bit lengths for
        every representable count.
        """
        counts = self._block_counts[level]
        if counts is None:
            nbytes = self._levels[level].nbytes
            total = -(-nbytes // BLOCK_SIZE)
            bits = np.frexp((total - 1).astype(np.float64))[1]
            counts = np.minimum(total, 1 + bits).astype(np.int64)
            self._block_counts[level] = counts
        return counts

    def baseline(self, rows: np.ndarray) -> int:
        """Streaming block count summed over a chunk of walk rows."""
        total = 0
        for level in range(self.height):
            total += int(self._counts(level)[rows[:, level]].sum())
        return total

    def blocks(self, level: int, pos: int) -> tuple[int, ...]:
        """The node's touched block addresses (shared scalar memo)."""
        linear = self._level_offsets[level] + pos
        b = self._blocks.get(linear)
        if b is None:
            lvl = self._levels[level]
            b = _blocks_for(int(lvl.address[pos]), int(lvl.nbytes[pos]))
            self._blocks[linear] = b
        return b

    def emit(self, batch: TraceBatch, row: list[int], t_search: int) -> None:
        """Append a full walk's node visits to ``batch``, node by node."""
        templates = self.template_map(t_search)
        offsets = self._level_offsets
        kinds = batch.kinds
        a1 = batch.a1
        a2 = batch.a2
        index_dram = 0
        for level, pos in enumerate(row):
            linear = offsets[level] + pos
            t = templates.get(linear)
            if t is None:
                t = self.build_template(level, pos, t_search)
                templates[linear] = t
            kinds += t[0]
            a1 += t[1]
            a2 += t[2]
            index_dram += t[3]
        batch.index_dram += index_dram

    def template_map(self, t_search: int) -> dict[int, tuple]:
        m = self._templates.get(t_search)
        if m is None:
            m = {}
            self._templates[t_search] = m
        return m

    def build_template(self, level: int, pos: int, t_search: int) -> tuple:
        """(kinds, a1, a2, n_blocks) for one node visit + search step."""
        blocks = self.blocks(level, pos)
        nb = len(blocks)
        return (
            _kinds_tuple(nb),
            blocks + (t_search,),
            _zeros_tuple(nb + 1),
            nb,
        )

    def packed_map(self, index_id: int, block_bytes: int) -> dict[Any, list]:
        """``pack_node`` results keyed by the memoized node view."""
        m = self._packed.get((index_id, block_bytes))
        if m is None:
            m = {}
            self._packed[(index_id, block_bytes)] = m
        return m

    def walk_template_map(self, t_search: int) -> dict[tuple[int, int], tuple]:
        m = self._walk_templates.get(t_search)
        if m is None:
            m = {}
            self._walk_templates[t_search] = m
        return m

    def build_walk_template(
        self, base_level: int, row: list[int], t_search: int
    ) -> tuple:
        """Concatenated emission for the sub-walk from ``base_level`` down.

        The path below any level is unique per leaf, so the memo key
        ``(base_level, row[-1])`` serves every walk routed through that
        leaf. Returns ``(kinds, a1, a2, index_dram, nodes)`` with
        ``nodes`` the memoized node views in visit order for the policy
        loop.
        """
        per_node = self.template_map(t_search)
        offsets = self._level_offsets
        kinds: tuple = ()
        a1: tuple = ()
        a2: tuple = ()
        total = 0
        nodes = []
        for position, pos in enumerate(row[base_level:]):
            level = base_level + position
            linear = offsets[level] + pos
            t = per_node.get(linear)
            if t is None:
                t = self.build_template(level, pos, t_search)
                per_node[linear] = t
            kinds += t[0]
            a1 += t[1]
            a2 += t[2]
            total += t[3]
            # The memoized node view rides in the template so the policy
            # loop never re-resolves it.
            nodes.append(self.view(level, pos))
        return (kinds, a1, a2, total, tuple(nodes))


def _planner_for(
    index: Any, planners: dict[int, BatchWalkPlanner | None]
) -> BatchWalkPlanner | None:
    """The index's planner, or None when it has no SoA level arrays."""
    key = id(index)
    if key in planners:
        return planners[key]
    tree = getattr(index, "_tree", index)
    planner = None
    if getattr(tree, "_levels", None) is not None:
        # Cache on the tree itself (it has no __slots__): repeated runs
        # over the same workload reuse the planner's templates.
        planner = tree.__dict__.get("_batch_planner")
        if planner is None:
            planner = BatchWalkPlanner(tree)
            tree._batch_planner = planner
    planners[key] = planner
    return planner


def _plan_chunk(
    requests: list[Any],
    planners: dict[int, BatchWalkPlanner | None],
    baseline_cache: dict[tuple[int, int], int],
) -> tuple[list[tuple[BatchWalkPlanner, list[int]] | None], int]:
    """Resolve one request chunk: vectorized walk rows + baseline count.

    Returns ``prepared`` (per request: ``(planner, positions_row)`` for
    point walks over SoA indexes, None for fallback requests) and the
    chunk's streaming-baseline increment. Range scans contribute their
    point-walk baseline here (matching the scalar accounting) but emit
    through the scalar fallback.
    """
    prepared: list[tuple[BatchWalkPlanner, list[int]] | None] = (
        [None] * len(requests)
    )
    baseline = 0
    groups: dict[int, tuple[BatchWalkPlanner, list[int]]] = {}
    for i, request in enumerate(requests):
        planner = _planner_for(request.index, planners)
        if planner is None:
            walk_id = (id(request.index), request.key)
            b = baseline_cache.get(walk_id)
            if b is None:
                b = sum(
                    len(_node_blocks(node))
                    for node in request.index.walk(request.key)
                )
                baseline_cache[walk_id] = b
            baseline += b
        else:
            group = groups.get(id(request.index))
            if group is None:
                groups[id(request.index)] = (planner, [i])
            else:
                group[1].append(i)
    for planner, members in groups.values():
        keys = np.fromiter(
            (requests[i].key for i in members), dtype=np.int64,
            count=len(members),
        )
        rows = planner.positions(keys)
        baseline += planner.baseline(rows)
        rows_list = rows.tolist()
        for j, i in enumerate(members):
            if requests[i].scan_hi is None:
                prepared[i] = (planner, rows_list[j])
    return prepared, baseline


def simulate_batched(
    memsys: MemorySystem,
    requests: list[Any],
    sim: SimParams,
    total_index_blocks: int = 0,
    record_latencies: bool = False,
    working_set_window: int = 2_000,
) -> RunResult:
    """Chunked, vectorized twin of the general path of ``simulate``.

    What :func:`repro.sim.metrics.simulate` runs for every timed,
    untraced, fault-free run. Trace generation goes through the memory
    system's ``process_chunk`` (native columnar emitters for
    stream/address/fa_opt/xcache/metal; scalar fallback otherwise), each
    chunk of ``sim.walk_batch`` requests is sealed into event rows as
    soon as it is emitted, and timing runs through ``Engine.run_batch``.
    """
    engine = Engine(sim, DRAM(sim.dram))
    batch = TraceBatch(working_set_window)
    planners: dict[int, BatchWalkPlanner | None] = {}
    baseline_cache: dict[tuple[int, int], int] = {}
    baseline = 0
    for part in chunked(requests, sim.walk_batch):
        prepared, chunk_baseline = _plan_chunk(
            part, planners, baseline_cache
        )
        baseline += chunk_baseline
        memsys.process_chunk(batch, part, prepared)
        batch.seal(engine)

    result = engine.run_batch(batch, record_latencies=record_latencies)
    latency_hist = (
        Histogram.from_values(result.walk_latencies)
        if result.walk_latencies else None
    )
    depth_hist = Histogram()
    if batch.visits:
        # Grouped ascending records land in the same buckets with the
        # same count/total/min/max as the scalar per-walk loop.
        for value, count in enumerate(
            np.bincount(np.asarray(batch.visits, dtype=np.int64)).tolist()
        ):
            if count:
                depth_hist.record(value, count)
    return RunResult(
        name=memsys.name,
        makespan=result.makespan,
        num_walks=result.num_walks,
        total_walk_cycles=result.total_walk_cycles,
        dram=engine.dram.stats,
        cache_stats=memsys.cache_stats,
        total_index_blocks=total_index_blocks,
        short_circuited=batch.short_circuited,
        full_hits=batch.full_hits,
        nodes_visited=batch.nodes_visited,
        start_levels=batch.start_levels,
        walk_latencies=result.walk_latencies,
        bandwidth_utilization=engine.dram.bandwidth_utilization(
            max(1, result.makespan)
        ),
        windowed_working_set=batch.windowed_working_set(total_index_blocks),
        index_dram_accesses=batch.index_dram,
        baseline_index_accesses=baseline,
        counters=None,
        tracer=None,
        latency_hist=latency_hist,
        depth_hist=depth_hist,
        faults=None,
    )


__all__ = [
    "BatchWalkPlanner",
    "TraceBatch",
    "simulate_batched",
]
