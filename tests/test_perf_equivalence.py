"""Property tests proving the hot-path rewrites are behaviour-preserving.

The PR-level gate is byte-identity of the full bench matrix; these tests
pin the individual algebraic rewrites (memoized block footprints, DRAM
shift/mask address decomposition, traced vs untraced runs) against
straightforward reference arithmetic so a regression is localized to one
function instead of "somewhere in the report".
"""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.bench.runner import build_memsys
from repro.mem.dram import DRAM
from repro.params import BLOCK_SIZE, DRAMParams
from repro.sim.memsys import _blocks_for
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload


def reference_blocks(address: int, nbytes: int) -> tuple[int, ...]:
    """The pre-memoization `_node_blocks` arithmetic, verbatim."""
    first = address - (address % BLOCK_SIZE)
    total = max(1, -(-(address + max(nbytes, 1) - first) // BLOCK_SIZE))
    touched = min(total, 1 + max(0, total - 1).bit_length())
    if touched >= total:
        picks = range(total)
    else:
        step = total / touched
        picks = sorted({int(i * step) for i in range(touched)})
    return tuple(first + p * BLOCK_SIZE for p in picks)


EXTENTS = st.tuples(
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=1 << 16),
)


class TestBlocksFor:
    @settings(max_examples=200, deadline=None)
    @given(extent=EXTENTS)
    def test_matches_reference_arithmetic(self, extent):
        address, nbytes = extent
        assert _blocks_for(address, nbytes) == reference_blocks(address, nbytes)

    @settings(max_examples=50, deadline=None)
    @given(extent=EXTENTS)
    def test_memoized_call_is_stable(self, extent):
        address, nbytes = extent
        assert _blocks_for(address, nbytes) is _blocks_for(address, nbytes)


ADDRESSES = st.integers(min_value=0, max_value=1 << 44)


class TestDRAMDecomposition:
    """Shift/mask fast path vs the divmod definition, both geometries."""

    @settings(max_examples=200, deadline=None)
    @given(address=ADDRESSES)
    def test_pow2_geometry_uses_fast_path(self, address):
        dram = DRAM(DRAMParams())
        assert dram._fast_decomp
        p = dram.params
        assert dram.bank_of(address) == (address // BLOCK_SIZE) % p.banks
        assert dram.row_of(address) == address // p.row_bytes

    @settings(max_examples=200, deadline=None)
    @given(address=ADDRESSES)
    def test_non_pow2_geometry_falls_back(self, address):
        dram = DRAM(DRAMParams(banks=12, row_bytes=1536))
        assert not dram._fast_decomp
        p = dram.params
        assert dram.bank_of(address) == (address // BLOCK_SIZE) % p.banks
        assert dram.row_of(address) == address // p.row_bytes

    @settings(max_examples=60, deadline=None)
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=40
        ),
    )
    def test_bank_of_independent_of_decomposition_path(self, addresses):
        """Equal geometry, different code path, same bank mapping.

        A non-pow2 row size disables ``_fast_decomp`` wholesale, so the
        second model maps identical bank counts through the divmod path;
        the bank sequence (what bank timing depends on) must agree.
        """
        fast = DRAM(DRAMParams())
        slow = DRAM(DRAMParams(row_bytes=2048 * 3))
        assert fast._fast_decomp and not slow._fast_decomp
        for address in addresses:
            assert fast.bank_of(address) == slow.bank_of(address)


class TestTracedUntracedEquivalence:
    def test_run_result_to_dict_identical(self):
        """Tracing must not perturb the model (counters aside)."""
        workload = build_workload("scan", scale=0.02)
        results = {}
        for trace in (False, True):
            sim = replace(workload.config.sim_params(), trace=trace)
            memsys = build_memsys("metal", workload, sim=sim)
            results[trace] = simulate(
                memsys, workload.requests, sim, workload.total_index_blocks,
                record_latencies=True,
            )
        off = results[False].to_dict()
        on = dict(results[True].to_dict())
        on.pop("counters", None)  # tracing-only by construction
        assert json.dumps(off, sort_keys=True) == json.dumps(on, sort_keys=True)
