"""Discrete-event engine multiplexing walker contexts over banked DRAM.

Each compute tile multiplexes several walker contexts (Section 3.2: "we
multiplex multiple walks on a single thread", yielding at long-latency
states). The engine models exactly that: walks are assigned round-robin to
``tiles x walker_contexts`` contexts; contexts advance one access at a time
in global time order, so independent walks overlap their DRAM latencies
(memory-level parallelism) while bank occupancy provides the bandwidth
ceiling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.mem.dram import DRAM
from repro.obs.tracer import NULL_TRACER
from repro.params import BLOCK_SIZE, SimParams
from repro.sim.noc import Crossbar


#: Kind codes of the columnar access stream (``repro.sim.batch``): the
#: batch pipeline stores one small int per access instead of an Access
#: object. ``K_LATENCY`` covers compute steps and portless SRAM probes —
#: everything the event loop times as a plain ``now += cycles``.
K_DRAM = 0
K_PREFETCH = 1
K_SRAM = 2
K_LATENCY = 3


@dataclass(slots=True)
class Access:
    """One timed step of a walk: a DRAM touch, an SRAM probe, or compute.

    ``port`` >= 0 routes an SRAM probe through the shared crossbar (port
    arbitration + occupancy); -1 means an uncontended local access.
    """

    kind: str  # 'dram' | 'dram_prefetch' | 'sram' | 'compute'
    address: int = 0
    nbytes: int = BLOCK_SIZE
    cycles: int = 0  # latency for 'sram' / 'compute'
    write: bool = False
    port: int = -1


@dataclass(slots=True)
class WalkTrace:
    """The access trace of one walk plus hit-path metadata."""

    key: int
    accesses: list[Access]
    start_level: int = 0
    nodes_visited: int = 0
    short_circuited: bool = False
    full_hit: bool = False


@dataclass(slots=True)
class EngineResult:
    """Aggregate timing of one engine run."""

    makespan: int = 0
    num_walks: int = 0
    total_walk_cycles: int = 0
    walk_latencies: list[int] = field(default_factory=list)

    @property
    def avg_walk_latency(self) -> float:
        if self.num_walks == 0:
            return 0.0
        return self.total_walk_cycles / self.num_walks


class Engine:
    """Times a batch of walk traces over one DRAM instance."""

    def __init__(self, params: SimParams | None = None, dram: DRAM | None = None) -> None:
        self.params = params or SimParams()
        self.dram = dram or DRAM(self.params.dram)
        self.xbar = Crossbar(self.params.xbar)
        self.tracer = NULL_TRACER
        #: Optional FaultInjector (repro.faults). None on fault-free runs.
        self.faults = None

    def attach_obs(self, tracer, registry=None) -> None:
        """Wire tracing through the engine, its DRAM, and its crossbar."""
        self.tracer = tracer
        self.dram.attach_obs(tracer, registry)
        self.xbar.attach_obs(tracer, registry)

    def attach_faults(self, injector) -> None:
        """Wire one FaultInjector through the engine, DRAM, and crossbar.

        Faulted runs always take the general event loop (tracing on or
        off), so the injection sites are visited in one canonical order
        and the fault schedule cannot depend on observability settings.
        """
        self.faults = injector
        self.dram.faults = injector
        self.xbar.faults = injector

    @property
    def contexts(self) -> int:
        return max(1, self.params.tiles * self.params.tile.walker_contexts)

    def run(self, traces: list[WalkTrace], record_latencies: bool = False) -> EngineResult:
        """Event-driven timed run over WalkTrace objects: the general loop.

        One event per iteration, in ``(cycle, context)`` heap order. This
        is the home of tracing and fault injection (``attach_obs`` /
        ``attach_faults``), and the reference the columnar
        :meth:`run_batch` is held byte-identical to. Faulted runs visit
        the injection sites in this one canonical order, so observability
        settings cannot perturb the fault schedule.
        """
        result = EngineResult(num_walks=len(traces))
        if not traces:
            return result
        contexts = self.contexts
        queues: list[list[WalkTrace]] = [[] for _ in range(contexts)]
        for i, trace in enumerate(traces):
            queues[i % contexts].append(trace)

        # Per-context cursor state: (walk index, access index, walk start).
        heap: list[tuple[int, int]] = [(0, c) for c in range(contexts) if queues[c]]
        heapq.heapify(heap)
        walk_idx = [0] * contexts
        access_idx = [0] * contexts
        walk_start = [0] * contexts
        makespan = 0
        tracer = self.tracer
        tracing = tracer.enabled
        faults = self.faults
        # Walk i sits at queues[i % contexts][i // contexts], so the
        # global walk ordinal is walk_idx * contexts + ctx.
        if tracing:
            for c in range(contexts):
                if queues[c]:
                    tracer.emit("walk_start", ts=0, phase="engine",
                                walk=c, ctx=c)

        # Per-context attribution accumulators (profiling): SRAM probe
        # service cycles and compute cycles of the in-flight walk. DRAM
        # and crossbar components are carried by their own events. With
        # faults attached, retry_acc carries the in-flight walk's backoff
        # cycles and degraded marks a walk that needed the fallback path.
        probe_acc = [0] * contexts
        compute_acc = [0] * contexts
        retry_acc = [0] * contexts
        degraded = [False] * contexts

        while heap:
            now, ctx = heapq.heappop(heap)
            trace = queues[ctx][walk_idx[ctx]]
            accesses = trace.accesses
            if access_idx[ctx] < len(accesses):
                access = accesses[access_idx[ctx]]
                if tracing:
                    # Walk-attribute the DRAM/crossbar events this access
                    # emits; prefetches never stall the walker, so they
                    # stay out of per-walk attribution (walk = -1).
                    tracer.walk = (
                        -1 if access.kind == "dram_prefetch"
                        else walk_idx[ctx] * contexts + ctx
                    )
                if access.kind == "dram":
                    for offset in range(0, max(access.nbytes, 1), BLOCK_SIZE):
                        now = self.dram.access(
                            access.address + offset, now, write=access.write
                        )
                    if faults is not None:
                        fails = faults.walker_failures()
                        if fails:
                            now = self._retry_walker_step(
                                faults, access, now, fails,
                                retry_acc, degraded, ctx,
                            )
                elif access.kind == "dram_prefetch":
                    # Prefetches consume bandwidth and bank occupancy but
                    # do not stall the issuing walker.
                    for offset in range(0, max(access.nbytes, 1), BLOCK_SIZE):
                        self.dram.access(access.address + offset, now)
                elif access.kind == "sram" and access.port >= 0:
                    if tracing:
                        probe_acc[ctx] += access.cycles
                    now = self.xbar.access(access.port, now, access.cycles)
                else:
                    if tracing:
                        if access.kind == "compute":
                            compute_acc[ctx] += access.cycles
                        else:
                            probe_acc[ctx] += access.cycles
                    now += access.cycles
                access_idx[ctx] += 1
                heapq.heappush(heap, (now, ctx))
                continue
            # Walk complete.
            latency = now - walk_start[ctx]
            result.total_walk_cycles += latency
            if record_latencies:
                result.walk_latencies.append(latency)
            makespan = max(makespan, now)
            if faults is not None and degraded[ctx]:
                faults.stats.walks_degraded += 1
            if tracing:
                # The ``retry`` component exists only on faulted runs so
                # fault-free traced output stays byte-identical.
                extra = (
                    {"retry": retry_acc[ctx], "degraded": degraded[ctx]}
                    if faults is not None else {}
                )
                tracer.emit("walk_end", ts=now, phase="engine",
                            walk=walk_idx[ctx] * contexts + ctx,
                            ctx=ctx, latency=latency,
                            probe=probe_acc[ctx], compute=compute_acc[ctx],
                            **extra)
                probe_acc[ctx] = 0
                compute_acc[ctx] = 0
            retry_acc[ctx] = 0
            degraded[ctx] = False
            walk_idx[ctx] += 1
            access_idx[ctx] = 0
            walk_start[ctx] = now
            if walk_idx[ctx] < len(queues[ctx]):
                if tracing:
                    tracer.emit("walk_start", ts=now, phase="engine",
                                walk=walk_idx[ctx] * contexts + ctx, ctx=ctx)
                heapq.heappush(heap, (now, ctx))

        result.makespan = makespan
        return result

    def _retry_walker_step(
        self,
        faults,
        access: Access,
        now: int,
        fails: int,
        retry_acc: list[int],
        degraded: list[bool],
        ctx: int,
    ) -> int:
        """Bounded retry-with-backoff for a transiently failed refill step.

        The walker context's fetch returned garbage ``fails`` times in a
        row: before re-fetch attempt ``i`` the context backs off
        ``walker_backoff_cycles << i`` cycles, then re-issues the node's
        DRAM accesses. Attempts within ``walker_retry_limit`` are clean
        retries; a step that exhausts the budget completes through one
        final degraded refetch and marks the walk degraded — the request
        always finishes, it is never dropped.
        """
        stats = faults.stats
        plan = faults.plan
        backoff = plan.walker_backoff_cycles
        dram_access = self.dram.access
        nbytes = max(access.nbytes, 1)
        address = access.address
        write = access.write
        for attempt in range(fails):
            pause = backoff << attempt
            now += pause
            stats.retry_backoff_cycles += pause
            retry_acc[ctx] += pause
            for offset in range(0, nbytes, BLOCK_SIZE):
                now = dram_access(address + offset, now, write=write)
        limit = plan.walker_retry_limit
        if fails > limit:
            stats.retries += limit
            stats.retries_exhausted += 1
            degraded[ctx] = True
        else:
            stats.retries += fails
        return now

    def run_batch(self, batch, record_latencies: bool = False) -> EngineResult:
        """Time a columnar access stream (``repro.sim.batch.TraceBatch``).

        The loop every timed, untraced, fault-free run takes. Walk ``w``
        is the sealed event rows ``batch`` encoded for this engine
        (``TraceBatch.seal``): one ``(kind, p1, p2, delay)`` row per
        event with the DRAM bank/row and crossbar port already resolved,
        and latency-only steps folded into the preceding row's ``delay``.
        A context expands one walk's rows into a short list when it
        starts the walk, so nothing run-length stays in Python objects.

        Scheduling is a calendar queue: contexts due at the same cycle
        share one bucket and drain in ascending context order — exactly
        the ``(cycle, ctx)`` pop order of :meth:`run`'s heap, because only
        the running context schedules new events at the current cycle.
        A folded delay is applied when the context is re-filed, so every
        DRAM/crossbar access keeps its original cycle and global order.
        Every number written to ``self.dram.stats`` / ``self.xbar`` and the
        returned EngineResult is byte-identical to :meth:`run` on the
        equivalent WalkTrace list.
        """
        batch.seal(self)
        events, offsets, leads = batch.sealed()
        nw = len(offsets) - 1
        result = EngineResult(num_walks=nw)
        if nw == 0:
            return result

        dram = self.dram
        t_access = dram._t_access
        t_row_hit = dram._t_row_hit
        t_occupancy = dram._t_occupancy
        e_access = dram._e_access
        e_row_hit = dram._e_row_hit
        bank_free = dram._bank_free
        open_row = dram._open_row
        port_free = self.xbar._port_free
        x_occupancy = self.xbar.params.t_occupancy
        heappush = heapq.heappush
        heappop = heapq.heappop
        latencies = result.walk_latencies

        contexts = self.contexts
        walk_id = list(range(contexts))
        rows_l: list[list] = [[]] * contexts
        ai_l = [0] * contexts
        start_l = [0] * contexts
        buckets: dict[int, list[int]] = {}
        bget = buckets.get
        times: list[int] = []
        for c in range(min(contexts, nw)):
            rows_l[c] = events[offsets[c]:offsets[c + 1]].tolist()
            # A folded leading latency schedules the context's first real
            # event at its original cycle (walk start time stays 0).
            s = leads[c]
            other = bget(s)
            if other is None:
                buckets[s] = [c]
                heappush(times, s)
            else:
                other.append(c)
        energy = 0.0
        row_hits = 0
        row_misses = 0
        xbar_wait = 0
        total_cycles = 0
        makespan = 0
        while times:
            t = heappop(times)
            bucket = buckets.pop(t)
            if len(bucket) > 1:
                bucket.sort()
            for ctx in bucket:
                now = t
                rows = rows_l[ctx]
                end = len(rows)
                ai = ai_l[ctx]
                while True:
                    if ai < end:
                        k, x, y, d = rows[ai]
                        if k == 0:  # dram (stalls the walker)
                            s = bank_free[x]
                            if s < now:
                                s = now
                            if open_row[x] == y:
                                now = s + t_row_hit
                                energy += e_row_hit
                                row_hits += 1
                            else:
                                now = s + t_access
                                energy += e_access
                                row_misses += 1
                                open_row[x] = y
                            bank_free[x] = s + t_occupancy
                        elif k == 3:  # latency only (compute / local sram)
                            now += x
                        elif k == 2:  # sram via crossbar
                            s = port_free[x]
                            if s < now:
                                s = now
                            else:
                                xbar_wait += s - now
                            port_free[x] = s + x_occupancy
                            now = s + y
                        else:  # dram prefetch: occupancy, no walker stall
                            s = bank_free[x]
                            if s < now:
                                s = now
                            if open_row[x] == y:
                                energy += e_row_hit
                                row_hits += 1
                            else:
                                energy += e_access
                                row_misses += 1
                                open_row[x] = y
                            bank_free[x] = s + t_occupancy
                        ai += 1
                        now += d
                        if now != t:
                            ai_l[ctx] = ai
                            other = bget(now)
                            if other is None:
                                buckets[now] = [ctx]
                                heappush(times, now)
                            else:
                                other.append(ctx)
                            break
                    else:
                        # Walk complete; the context continues at the
                        # same cycle with its next walk, if any.
                        latency = now - start_l[ctx]
                        total_cycles += latency
                        if record_latencies:
                            latencies.append(latency)
                        if now > makespan:
                            makespan = now
                        w = walk_id[ctx] + contexts
                        if w >= nw:
                            rows_l[ctx] = []
                            break
                        walk_id[ctx] = w
                        start_l[ctx] = now
                        rows = events[offsets[w]:offsets[w + 1]].tolist()
                        rows_l[ctx] = rows
                        end = len(rows)
                        ai = 0
                        now += leads[w]
                        if now != t:
                            ai_l[ctx] = 0
                            other = bget(now)
                            if other is None:
                                buckets[now] = [ctx]
                                heappush(times, now)
                            else:
                                other.append(ctx)
                            break

        stats = dram.stats
        stats.reads += batch.mem_count - batch.writes
        stats.writes += batch.writes
        stats.bytes_moved += BLOCK_SIZE * batch.mem_count
        stats.energy_fj += energy
        stats.row_hits += row_hits
        stats.row_misses += row_misses
        stats.touched_blocks.update(batch.touched_blocks)
        self.xbar.requests += batch.sram_count
        self.xbar.total_wait += xbar_wait
        result.total_walk_cycles = total_cycles
        result.makespan = makespan
        return result

    def run_functional(
        self, traces: list[WalkTrace], record_latencies: bool = False
    ) -> EngineResult:
        """Untimed pass: nominal latencies, full traffic/energy accounting.

        Cheap mode for miss-rate / working-set experiments that do not need
        bank contention. Each walk's latency is the serial sum of nominal
        access latencies; the makespan assumes perfect context overlap.
        """
        result = EngineResult(num_walks=len(traces))
        p = self.params.dram
        busy = 0
        for trace in traces:
            latency = 0
            for access in trace.accesses:
                if access.kind == "dram":
                    blocks = max(1, -(-access.nbytes // BLOCK_SIZE))
                    for offset in range(0, max(access.nbytes, 1), BLOCK_SIZE):
                        self.dram.access(access.address + offset, 0, write=access.write)
                    latency += p.t_access * blocks
                elif access.kind == "dram_prefetch":
                    for offset in range(0, max(access.nbytes, 1), BLOCK_SIZE):
                        self.dram.access(access.address + offset, 0)
                else:
                    latency += access.cycles
            result.total_walk_cycles += latency
            if record_latencies:
                result.walk_latencies.append(latency)
            busy += latency
        result.makespan = max(1, busy // self.contexts)
        return result
