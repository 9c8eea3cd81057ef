"""Calendar-queue batch loop vs the general heap loop: exact equivalence.

``Engine.run_batch`` drains contexts from per-cycle calendar buckets in
ascending context order — exactly the (cycle, ctx) order the general
``Engine.run`` heap pops — over a sealed columnar ``TraceBatch`` with
latency-only steps folded into delays. These properties hammer
tie-heavy schedules (many contexts due at the same cycle, zero-latency
compute steps, bank conflicts) where any ordering divergence would
surface as a different row-hit sequence or makespan.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.dram import DRAM
from repro.params import DRAMParams, SimParams, TileParams
from repro.sim.batch import TraceBatch
from repro.sim.engine import Access, Engine, WalkTrace


def _walks(spec):
    """spec: list of lists of (kind, magnitude) -> WalkTraces.

    kind 0 -> DRAM (few distinct banks: heavy conflicts), kind 1 ->
    compute (including zero-ish latencies: tie-heavy), kind 2 -> SRAM on
    a shared port (crossbar arbitration ties).
    """
    traces = []
    for i, accesses in enumerate(spec):
        steps = []
        for kind, magnitude in accesses:
            if kind == 0:
                # Confine addresses to a handful of blocks so several
                # contexts hit the same bank in the same cycle.
                steps.append(Access("dram", address=(magnitude % 8) * 64))
            elif kind == 1:
                steps.append(Access("compute", cycles=magnitude % 3))
            else:
                steps.append(Access("sram", cycles=magnitude % 4 + 1,
                                    port=magnitude % 2))
        traces.append(WalkTrace(i, steps))
    return traces


def _engine(contexts):
    return Engine(SimParams(
        dram=DRAMParams(),
        tile=TileParams(walker_contexts=contexts),
        tiles=1,
    ), DRAM())


def _run_batch(engine, traces):
    batch = TraceBatch()
    for trace in traces:
        batch.add_trace(trace)
    return engine.run_batch(batch, record_latencies=True)


TIE_HEAVY_SPEC = st.lists(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 100)),
             min_size=1, max_size=6),
    min_size=1, max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(spec=TIE_HEAVY_SPEC, contexts=st.sampled_from([1, 3, 8]))
def test_property_bucket_matches_heap_exactly(spec, contexts):
    """Same walks, same contexts: every result and stat is identical."""
    traces = _walks(spec)
    heap_eng = _engine(contexts)
    heap_res = heap_eng.run(traces, record_latencies=True)
    bucket_eng = _engine(contexts)
    bucket_res = _run_batch(bucket_eng, traces)

    assert bucket_res.makespan == heap_res.makespan
    assert bucket_res.total_walk_cycles == heap_res.total_walk_cycles
    # Latencies must match per-walk, not merely in aggregate: the
    # calendar pops contexts in exactly heap order.
    assert bucket_res.walk_latencies == heap_res.walk_latencies

    hs, bs = heap_eng.dram.stats, bucket_eng.dram.stats
    assert (bs.row_hits, bs.row_misses) == (hs.row_hits, hs.row_misses)
    assert bs.energy_fj == hs.energy_fj
    assert (bs.reads, bs.writes) == (hs.reads, hs.writes)
    assert bs.touched_blocks == hs.touched_blocks
    assert bucket_eng.xbar.total_wait == heap_eng.xbar.total_wait
    assert bucket_eng.xbar.requests == heap_eng.xbar.requests


@settings(max_examples=25, deadline=None)
@given(spec=TIE_HEAVY_SPEC)
def test_property_all_ties_single_cycle_compute(spec):
    """Degenerate calendar: every context lands in the same few buckets."""
    # Strip to compute-only single-cycle steps: maximal bucket sharing.
    traces = [
        WalkTrace(i, [Access("compute", cycles=1) for _ in accesses])
        for i, accesses in enumerate(spec)
    ]
    heap_res = _engine(4).run(traces, record_latencies=True)
    bucket_res = _run_batch(_engine(4), traces)
    assert bucket_res.walk_latencies == heap_res.walk_latencies
    assert bucket_res.makespan == heap_res.makespan


def test_unknown_engine_rejected():
    """The engine= knob is gone: passing one fails loudly, not silently."""
    with pytest.raises(TypeError, match="engine"):
        SimParams(engine="wheel")


@pytest.mark.parametrize("walk_batch", (0, -1))
def test_walk_batch_below_one_rejected(walk_batch):
    with pytest.raises(ValueError, match="walk_batch"):
        SimParams(walk_batch=walk_batch)
