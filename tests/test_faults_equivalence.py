"""Differential no-fault equivalence gate for the fault-injection layer.

The PR-level acceptance bar is byte-identity of the full bench matrix with
faults unset; these tests pin the same contract in-repo, in the idiom of
``test_perf_equivalence.py``: with ``faults=None``, with an *empty*
``FaultPlan`` (the default — every rate zero), and with an explicit
rate-0 plan carrying non-default penalty magnitudes, ``RunResult.to_dict``
is byte-identical across the shared-system matrix. The no-fault tree must
not even carry a ``faults`` key, so pre-fault-layer serializations replay
unchanged through caches and baselines.
"""

import json
from dataclasses import replace

import pytest

from repro.bench.runner import SYSTEMS, build_memsys
from repro.faults import FaultPlan
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload

SCALE = 0.01
WORKLOADS = ("scan", "sets")

#: The three spellings of "no faults" that must be indistinguishable.
NO_FAULT_MODES = {
    "none": None,
    "empty_plan": FaultPlan(),
    "zero_rates": FaultPlan(
        seed=99, dram_spike_cycles=1234, bank_stall_cycles=777,
        noc_burst_cycles=55, walker_backoff_cycles=3, storm_span_blocks=9,
    ),
}


@pytest.fixture(scope="module")
def workloads():
    return {name: build_workload(name, scale=SCALE) for name in WORKLOADS}


def run_dict(workload, system: str, faults) -> dict:
    sim = replace(workload.config.sim_params(), faults=faults)
    memsys = build_memsys(system, workload, sim=sim)
    result = simulate(
        memsys, workload.requests, sim, workload.total_index_blocks,
        record_latencies=True,
    )
    return result.to_dict()


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_no_fault_matrix_byte_identical(workloads, workload_name, system):
    workload = workloads[workload_name]
    reference = json.dumps(run_dict(workload, system, None), sort_keys=True)
    assert '"faults"' not in reference
    for mode, plan in NO_FAULT_MODES.items():
        if plan is None:
            continue
        assert plan.is_empty
        got = json.dumps(run_dict(workload, system, plan), sort_keys=True)
        assert got == reference, (
            f"{workload_name}/{system}: {mode} diverged from faults=None"
        )


def test_untraced_fast_path_taken_when_fault_free(workloads, monkeypatch):
    """faults=None must dispatch to the columnar batch loop."""
    from repro.sim import engine as engine_mod

    calls = []
    original = engine_mod.Engine.run_batch

    def spy(self, *args, **kwargs):
        calls.append(True)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(engine_mod.Engine, "run_batch", spy)
    workload = workloads["scan"]
    run_dict(workload, "metal", None)
    assert calls, "fault-free untraced run bypassed the batch loop"
    # ... and a faulted run must NOT take it (one canonical site order).
    calls.clear()
    run_dict(workload, "metal", FaultPlan.uniform(0.05))
    assert not calls, "faulted run took the batch loop (schedule would fork)"


def test_faulted_run_differs_and_carries_ledger(workloads):
    """Sanity: nonzero plans actually perturb the run and are accounted."""
    workload = workloads["scan"]
    clean = run_dict(workload, "metal", None)
    faulted = run_dict(workload, "metal", FaultPlan.uniform(0.05, seed=1))
    assert faulted["makespan"] > clean["makespan"]
    ledger = faulted["faults"]
    assert ledger["faults_injected"] > 0
    assert (
        ledger["walks_completed"] + ledger["walks_degraded"]
        == ledger["walks_total"]
        == faulted["num_walks"]
    )
