"""Run orchestration and result metrics.

:func:`simulate` drives a memory system over a workload's walk requests,
times the traces on the event engine, and bundles the metrics every
experiment consumes: makespan, average walk latency, miss rate, DRAM
energy/traffic, and the working-set fraction of Fig. 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.mem.dram import DRAM
from repro.mem.layout import Allocator
from repro.mem.stats import CacheStats, DRAMStats
from repro.obs.histogram import Histogram
from repro.obs.registry import Registry
from repro.obs.tracer import Tracer
from repro.params import BLOCK_SIZE, SimParams
from repro.sim.engine import Access, Engine, WalkTrace
from repro.sim.memsys import MemorySystem


class WalkRequest(NamedTuple):
    """One unit of DSA work: walk ``index`` for ``key``, then compute.

    ``data_address``/``data_bytes`` describe the leaf data-object fetch
    (identical across cache designs — the caches only target the index).
    ``compute_cycles`` is the application compute per walk (Table 2's
    Ops/Compute divided by tile issue width).
    """

    index: Any
    key: int
    compute_cycles: int = 0
    data_address: int | None = None
    data_bytes: int = 64
    #: When set, the request is a range scan [key, scan_hi]: the walk to
    #: ``key`` is followed by a leaf stream through ``scan_hi``.
    scan_hi: int | None = None


@dataclass
class RunResult:
    """Everything the benchmarks report about one (memsys, workload) run."""

    name: str
    makespan: int
    num_walks: int
    total_walk_cycles: int
    dram: DRAMStats
    cache_stats: CacheStats | None
    total_index_blocks: int
    short_circuited: int = 0
    full_hits: int = 0
    nodes_visited: int = 0
    start_levels: list[int] = field(default_factory=list)
    walk_latencies: list[int] = field(default_factory=list)
    bandwidth_utilization: float = 0.0
    #: Distinct index blocks fetched from DRAM per window of walks,
    #: averaged, over the total index blocks (secondary locality metric).
    windowed_working_set: float = 0.0
    #: Index-region DRAM block fetches this run actually performed.
    index_dram_accesses: int = 0
    #: Index-region DRAM block fetches a streaming (cache-less) DSA would
    #: perform on the same requests — the Fig. 16 denominator.
    baseline_index_accesses: int = 0
    #: Observability: counter-registry snapshot (None when tracing off).
    counters: dict[str, int | float] | None = None
    #: Observability: the tracer holding buffered events (None when off).
    tracer: Tracer | None = None
    #: Walk-latency distribution (populated when latencies were recorded:
    #: ``record_latencies=True`` or tracing enabled).
    latency_hist: Histogram | None = None
    #: Probe-depth distribution: nodes visited per walk (always populated;
    #: identical with tracing on or off).
    depth_hist: Histogram | None = None
    #: Fault-injection & resilience ledger (repro.faults.FaultStats
    #: as a dict); None on fault-free runs, keeping to_dict byte-identical
    #: to the pre-fault-layer serialization.
    faults: dict[str, int] | None = None

    @property
    def avg_walk_latency(self) -> float:
        if self.num_walks == 0:
            return 0.0
        return self.total_walk_cycles / self.num_walks

    @property
    def miss_rate(self) -> float:
        return self.cache_stats.miss_rate if self.cache_stats else 1.0

    @property
    def working_set_fraction(self) -> float:
        """Fig. 16: fraction of the index's walk traffic served by DRAM.

        1.0 for a streaming DSA (every node touch is a DRAM fetch); caches
        shrink it by serving touches on-chip, and METAL shrinks it further
        by eliminating touches outright (short-circuits).
        """
        if self.baseline_index_accesses == 0:
            return 0.0
        return min(1.0, self.index_dram_accesses / self.baseline_index_accesses)

    @property
    def dram_energy_fj(self) -> float:
        return self.dram.energy_fj

    def speedup_vs(self, baseline: "RunResult") -> float:
        if self.makespan == 0:
            return float("inf")
        return baseline.makespan / self.makespan

    def latency_percentiles(self) -> dict[str, int] | None:
        """p50/p90/p99/max walk latency, or None when not recorded."""
        if self.latency_hist is None or self.latency_hist.count == 0:
            return None
        hist = self.latency_hist
        return {
            "p50": hist.percentile(50),
            "p90": hist.percentile(90),
            "p99": hist.percentile(99),
            "max": hist.max,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (for machine-readable reports)."""
        return {
            "system": self.name,
            "makespan": self.makespan,
            "num_walks": self.num_walks,
            "avg_walk_latency": self.avg_walk_latency,
            "miss_rate": self.miss_rate,
            "working_set_fraction": self.working_set_fraction,
            "short_circuited": self.short_circuited,
            "full_hits": self.full_hits,
            "nodes_visited": self.nodes_visited,
            "dram": {
                "accesses": self.dram.accesses,
                "reads": self.dram.reads,
                "writes": self.dram.writes,
                "energy_fj": self.dram.energy_fj,
                "bytes_moved": self.dram.bytes_moved,
                "row_hits": self.dram.row_hits,
                "row_misses": self.dram.row_misses,
            },
            "cache": (
                {
                    "accesses": self.cache_stats.accesses,
                    "hits": self.cache_stats.hits,
                    "misses": self.cache_stats.misses,
                    "insertions": self.cache_stats.insertions,
                    "evictions": self.cache_stats.evictions,
                    "bypasses": self.cache_stats.bypasses,
                }
                if self.cache_stats is not None
                else None
            ),
            "index_dram_accesses": self.index_dram_accesses,
            "bandwidth_utilization": self.bandwidth_utilization,
            "total_walk_cycles": self.total_walk_cycles,
            "total_index_blocks": self.total_index_blocks,
            "baseline_index_accesses": self.baseline_index_accesses,
            "windowed_working_set": self.windowed_working_set,
            **(
                {"latency": {**self.latency_hist.to_dict(),
                             "state": self.latency_hist.state()}}
                if self.latency_hist is not None and self.latency_hist.count
                else {}
            ),
            **(
                {"probe_depth": {**self.depth_hist.to_dict(),
                                 "state": self.depth_hist.state()}}
                if self.depth_hist is not None and self.depth_hist.count
                else {}
            ),
            **({"counters": self.counters} if self.counters is not None else {}),
            **({"faults": self.faults} if self.faults is not None else {}),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict` (JSON round-trip safe).

        Derived quantities (``avg_walk_latency``, ``miss_rate``,
        ``working_set_fraction``, histogram percentiles) are recomputed
        from the restored state, so ``from_dict(d).to_dict() == d`` holds
        byte-for-byte. Raw per-walk lists (``walk_latencies``,
        ``start_levels``) and the live tracer do not survive serialization;
        the latency distribution survives via the histogram state.
        """
        dram_d = data["dram"]
        dram = DRAMStats(
            reads=dram_d["reads"],
            writes=dram_d["writes"],
            row_hits=dram_d["row_hits"],
            row_misses=dram_d["row_misses"],
            energy_fj=dram_d["energy_fj"],
            bytes_moved=dram_d["bytes_moved"],
        )
        cache_d = data.get("cache")
        cache = (
            CacheStats(
                accesses=cache_d["accesses"],
                hits=cache_d["hits"],
                misses=cache_d["misses"],
                insertions=cache_d["insertions"],
                evictions=cache_d["evictions"],
                bypasses=cache_d["bypasses"],
            )
            if cache_d is not None
            else None
        )
        latency_d = data.get("latency")
        depth_d = data.get("probe_depth")
        counters = data.get("counters")
        faults = data.get("faults")
        return cls(
            name=data["system"],
            makespan=data["makespan"],
            num_walks=data["num_walks"],
            total_walk_cycles=data["total_walk_cycles"],
            dram=dram,
            cache_stats=cache,
            total_index_blocks=data["total_index_blocks"],
            short_circuited=data["short_circuited"],
            full_hits=data["full_hits"],
            nodes_visited=data["nodes_visited"],
            bandwidth_utilization=data["bandwidth_utilization"],
            windowed_working_set=data["windowed_working_set"],
            index_dram_accesses=data["index_dram_accesses"],
            baseline_index_accesses=data["baseline_index_accesses"],
            counters=dict(counters) if counters is not None else None,
            faults=dict(faults) if faults is not None else None,
            latency_hist=(
                Histogram.from_state(latency_d["state"]) if latency_d else None
            ),
            depth_hist=(
                Histogram.from_state(depth_d["state"]) if depth_d else None
            ),
        )


def _windowed_working_set(
    traces: list[WalkTrace], total_index_blocks: int, window: int
) -> float:
    """Average distinct index-region DRAM blocks per window of walks.

    This is the Fig. 16 working-set metric: how much of the index a steady
    window of walks actually pulls from DRAM. Data-region accesses are
    excluded (identical across cache designs).
    """
    if total_index_blocks <= 0 or not traces:
        return 0.0
    data_base_block = Allocator.DATA_BASE // BLOCK_SIZE
    block_size = BLOCK_SIZE
    fractions: list[float] = []
    # Single pass with one reused set: windows are disjoint, so the set is
    # drained at each boundary instead of rebuilt per window slice.
    touched: set[int] = set()
    add = touched.add
    in_window = 0
    for trace in traces:
        for access in trace.accesses:
            if access.kind != "dram":
                continue
            address = access.address
            first = address // block_size
            if first >= data_base_block:
                continue
            nbytes = access.nbytes
            if nbytes <= block_size:
                add(first)
            else:
                last = (address + nbytes - 1) // block_size
                touched.update(range(first, last + 1))
        in_window += 1
        if in_window == window:
            fractions.append(min(1.0, len(touched) / total_index_blocks))
            touched.clear()
            in_window = 0
    if in_window:
        fractions.append(min(1.0, len(touched) / total_index_blocks))
    return sum(fractions) / len(fractions)


def simulate(
    memsys: MemorySystem,
    requests: list[WalkRequest],
    sim: SimParams | None = None,
    total_index_blocks: int = 0,
    timed: bool = True,
    record_latencies: bool = False,
    working_set_window: int = 2_000,
    tracer: Tracer | None = None,
    registry: Registry | None = None,
) -> RunResult:
    """Run a workload through a memory system and time it.

    The functional pass (trace generation + cache state) happens in request
    order; the engine then times the traces with walker-context overlap and
    bank contention. ``timed=False`` uses the cheap functional timing.

    Observability: when ``sim.trace`` is set (or a ``tracer`` is passed), a
    :class:`Tracer` and :class:`Registry` are wired through the memory
    system, engine, DRAM, and crossbar; the result carries the tracer plus
    a counter snapshot. With tracing off (the default) the hot paths see
    only a ``NULL_TRACER.enabled`` check.
    """
    from repro.sim.memsys import _node_blocks  # avoid an import cycle

    sim = sim or memsys.sim
    if tracer is None and sim.trace:
        tracer = Tracer(capacity=sim.trace_buffer)
    tracing = tracer is not None
    if tracing:
        registry = registry or Registry()
        memsys.attach_obs(tracer, registry)
    # Fault injection: an injector exists only for a non-empty plan, so
    # ``faults=None`` and an all-zero-rate plan take identical code paths
    # (and produce byte-identical results) by construction.
    injector = None
    if sim.faults is not None and not sim.faults.is_empty:
        from repro.faults import FaultInjector

        injector = FaultInjector(sim.faults)
        memsys.attach_faults(injector)
        if tracing:
            injector.attach_obs(registry)
    if timed and not tracing and injector is None:
        # The columnar batch pipeline (repro.sim.batch). Traced and
        # faulted runs stay on the scalar path below, whose general
        # engine loop keeps one canonical order for injection sites and
        # event attribution, and which the batch path is held
        # byte-identical to.
        from repro.sim.batch import simulate_batched

        return simulate_batched(
            memsys,
            requests,
            sim,
            total_index_blocks=total_index_blocks,
            record_latencies=record_latencies,
            working_set_window=working_set_window,
        )
    traces: list[WalkTrace] = []
    short = full = visited = 0
    index_dram = baseline = 0
    depth_hist = Histogram()
    start_levels: list[int] = []
    data_base = Allocator.DATA_BASE
    baseline_cache: dict[tuple[int, int], int] = {}
    for walk_ordinal, request in enumerate(requests):
        if tracing:
            tracer.walk = walk_ordinal
        if request.scan_hi is not None:
            trace = memsys.process_range_scan(
                request.index, request.key, request.scan_hi
            )
        else:
            trace = memsys.process_walk(request.index, request.key)
        for access in trace.accesses:
            if access.kind == "dram" and access.address < data_base:
                index_dram += 1
        walk_id = (id(request.index), request.key)
        if walk_id not in baseline_cache:
            baseline_cache[walk_id] = sum(
                len(_node_blocks(node)) for node in request.index.walk(request.key)
            )
        baseline += baseline_cache[walk_id]
        if request.data_address is not None:
            trace.accesses.append(
                Access("dram", request.data_address, request.data_bytes)
            )
        if request.compute_cycles:
            trace.accesses.append(Access("compute", cycles=request.compute_cycles))
        traces.append(trace)
        short += trace.short_circuited
        full += trace.full_hit
        visited += trace.nodes_visited
        depth_hist.record(trace.nodes_visited)
        start_levels.append(trace.start_level)

    engine = Engine(sim, DRAM(sim.dram))
    if tracing:
        tracer.walk = -1  # engine events carry explicit walk ids
        engine.attach_obs(tracer, registry)
        # The profiler and percentile gauges need per-walk latencies.
        record_latencies = True
    if injector is not None:
        engine.attach_faults(injector)
    if timed:
        result = engine.run(traces, record_latencies=record_latencies)
    else:
        result = engine.run_functional(traces, record_latencies=record_latencies)
    if injector is not None:
        injector.finalize(result.num_walks)
    latency_hist = (
        Histogram.from_values(result.walk_latencies)
        if result.walk_latencies else None
    )
    counters = None
    if tracing and registry is not None:
        registry.set("engine.makespan", result.makespan)
        registry.set("engine.num_walks", result.num_walks)
        registry.set("engine.total_walk_cycles", result.total_walk_cycles)
        registry.set("walks.short_circuited", short)
        registry.set("walks.full_hits", full)
        registry.set("walks.nodes_visited", visited)
        for kind, count in tracer.counts.items():
            registry.set(f"events.{kind}", count)
        registry.set("events.dropped", tracer.dropped)
        if latency_hist is not None and latency_hist.count:
            for name, value in latency_hist.to_dict().items():
                registry.set(f"walk_latency.{name}", value)
        if depth_hist.count:
            for name, value in depth_hist.to_dict().items():
                registry.set(f"probe_depth.{name}", value)
        counters = registry.snapshot()
    return RunResult(
        name=memsys.name,
        makespan=result.makespan,
        num_walks=result.num_walks,
        total_walk_cycles=result.total_walk_cycles,
        dram=engine.dram.stats,
        cache_stats=memsys.cache_stats,
        total_index_blocks=total_index_blocks,
        short_circuited=short,
        full_hits=full,
        nodes_visited=visited,
        start_levels=start_levels,
        walk_latencies=result.walk_latencies,
        bandwidth_utilization=engine.dram.bandwidth_utilization(max(1, result.makespan)),
        windowed_working_set=_windowed_working_set(
            traces, total_index_blocks, working_set_window
        ),
        index_dram_accesses=index_dram,
        baseline_index_accesses=baseline,
        counters=counters,
        tracer=tracer,
        latency_hist=latency_hist,
        depth_hist=depth_hist,
        faults=injector.stats.to_dict() if injector is not None else None,
    )
