"""Byte-identity of the batch path against the scalar reference.

The equivalence gate in one test module: for each memory system and a
small workload, the default run — the columnar batch pipeline — and its
chunk-size variants must produce a ``RunResult`` whose canonical JSON
(plus start levels, IX-cache occupancy and the METAL controller history)
equals the reference byte for byte. The reference is the scalar
walk-at-a-time trace generators timed by the general engine loop (a
traced run, counters aside). This is the tier-1 anchor of the CI
``vectorized-equivalence`` job (which re-runs the sweep at larger scale
via ``repro.bench.vector_check``).
"""

from dataclasses import replace

import pytest

from repro.bench.runner import SYSTEMS, run_workload
from repro.bench.vector_check import (
    VARIANTS,
    check_cell,
    reference_record,
    run_cell,
    run_matrix,
)
from repro.workloads.suite import build_workload

SCALE = 0.01


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("backend", ("soa", "object"))
def test_vectorized_byte_identical_scan(system, backend):
    workload = build_workload("scan", scale=SCALE, backend=backend)
    base_sim = workload.config.sim_params()
    reference = reference_record(workload, system)
    for label, overrides in VARIANTS:
        got = run_cell(workload, system, replace(base_sim, **overrides))
        assert got == reference, (
            f"{system}/{backend}/{label} diverged from the scalar reference"
        )


@pytest.mark.parametrize("system", ("metal", "metal_ix"))
def test_vectorized_byte_identical_select(system):
    assert check_cell("select", "soa", system, SCALE) == []


def test_odd_chunk_sizes_byte_identical():
    """Chunk boundaries must not leak into results (last partial chunk)."""
    workload = build_workload("scan", scale=SCALE, backend="soa")
    base_sim = workload.config.sim_params()
    reference = reference_record(workload, "metal")
    for walk_batch in (1, 7, 64):
        got = run_cell(
            workload, "metal", replace(base_sim, walk_batch=walk_batch)
        )
        assert got == reference, f"walk_batch={walk_batch} diverged"


def test_run_matrix_reports_clean():
    failures = run_matrix(
        scales=[SCALE], workloads=["scan"], systems=["xcache"],
        verbose=False,
    )
    assert failures == []


def test_reference_takes_the_general_loop(monkeypatch):
    """The reference must not be the batch path it is compared against."""
    from repro.sim import engine as engine_mod

    calls = []
    original = engine_mod.Engine.run_batch

    def spy(self, *args, **kwargs):
        calls.append(True)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(engine_mod.Engine, "run_batch", spy)
    workload = build_workload("scan", scale=SCALE)
    reference_record(workload, "metal")
    assert not calls
    run_workload(workload, "metal")
    assert calls


def test_controller_history_matches_reference():
    """Batch feedback mid-chunk must see the live cache stats.

    At scale 0.1 the controller closes a batch every 200 walks, inside
    a 256-walk chunk, so stale hit counters would show as a different
    per-batch hit rate (the Fig. 22 adaptivity series).
    """
    assert check_cell("scan", "soa", "metal", 0.1) == []
