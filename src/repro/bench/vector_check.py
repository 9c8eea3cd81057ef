"""Byte-identity gate for the vectorized batch core.

Every timed, untraced, fault-free run takes the columnar batch pipeline
(``repro.sim.batch`` + ``Engine.run_batch``). Its results must serialize
byte-for-byte identically to the reference: the scalar walk-at-a-time
trace generators timed by the general one-event-per-iteration engine
loop, which a traced run takes (tracing is pinned not to change
``RunResult.to_dict()`` apart from its ``counters``). The comparison also
covers the state ``to_dict`` omits: per-walk start levels, IX-cache
occupancy and the METAL controller's batch history. This module sweeps
that claim across every memory system, both index backends and a set of
workloads, and exits non-zero on the first divergence, so CI can hold
the gate.

Run as a module::

    python -m repro.bench.vector_check --scale 0.01 --workloads scan,select

Exit codes follow ``repro.perf.harness``: 0 all identical, 3 on any
mismatch (the checksum-mismatch code — a byte divergence is a behaviour
change, never a timing artifact).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from typing import Any, Iterable

from repro.bench.runner import SYSTEMS, build_memsys
from repro.sim.metrics import simulate
from repro.workloads.suite import build_workload

#: Exit code on divergence (mirrors harness.EXIT_CHECKSUM_MISMATCH).
EXIT_MISMATCH = 3

#: The batch-path configurations checked against the scalar reference.
#: Each is a dict of SimParams overrides applied via dataclasses.replace:
#: the default chunk size, and an odd one so chunk boundaries fall
#: mid-stream everywhere.
VARIANTS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("batch", {}),
    ("batch7", {"walk_batch": 7}),
)

#: Index storage backends the sweep covers. The SoA backend is where the
#: batched walk path engages; on the object backend the batch path runs
#: the scalar walk per request and must stay identical too.
BACKENDS: tuple[str, ...] = ("soa", "object")


def canonical(result: Any, memsys: Any) -> str:
    """The byte string compared: canonical JSON of RunResult.to_dict().

    The run's other observable outputs join it: the per-walk start
    levels and, for METAL systems, the IX-cache occupancy by level and
    the pattern controller's batch history — the state the adaptivity
    and occupancy figures read, which ``to_dict`` omits.
    """
    data = dict(result.to_dict())
    data.pop("counters", None)  # tracing-only by construction
    data["start_levels"] = list(result.start_levels)
    policy = getattr(memsys, "policy", None)
    if policy is not None:
        data["occupancy_by_level"] = {
            str(level): n
            for level, n in policy.cache.occupancy_by_level().items()
        }
        if policy.controller is not None:
            data["controller_history"] = policy.controller.history
    return json.dumps(data, sort_keys=True)


def run_cell(workload: Any, system: str, sim: Any) -> str:
    """One cell under ``sim``, as :func:`canonical` with its memsys."""
    memsys = build_memsys(system, workload, sim=sim)
    result = simulate(
        memsys, workload.requests, sim, workload.total_index_blocks,
        record_latencies=True,
    )
    return canonical(result, memsys)


def reference_record(workload: Any, system: str) -> str:
    """The scalar walks timed by the general engine loop (a traced run)."""
    sim = replace(workload.config.sim_params(), trace=True)
    return run_cell(workload, system, sim)


def check_cell(
    workload_name: str, backend: str, system: str, scale: float,
) -> list[str]:
    """Compare every batch variant of one cell against the reference.

    Returns a list of mismatch descriptions (empty = identical).
    """
    workload = build_workload(workload_name, scale=scale, backend=backend)
    base_sim = workload.config.sim_params()
    reference = reference_record(workload, system)
    mismatches = []
    for label, overrides in VARIANTS:
        got = run_cell(workload, system, replace(base_sim, **overrides))
        if got != reference:
            detail = diff_keys(reference, got)
            mismatches.append(
                f"{workload_name}/{backend}/{system}/{label}: {detail}"
            )
    return mismatches


def diff_keys(ref_js: str, got_js: str) -> str:
    """Name the top-level RunResult fields that diverged."""
    ref = json.loads(ref_js)
    got = json.loads(got_js)
    keys = [k for k in ref if ref[k] != got.get(k)]
    keys += [k for k in got if k not in ref]
    return "diverged fields: " + ", ".join(sorted(set(keys)))


def run_matrix(
    scales: Iterable[float],
    workloads: Iterable[str],
    systems: Iterable[str] = SYSTEMS,
    verbose: bool = True,
) -> list[str]:
    """Sweep the full matrix; returns all mismatch descriptions."""
    failures: list[str] = []
    for scale in scales:
        for workload_name in workloads:
            for backend in BACKENDS:
                for system in systems:
                    bad = check_cell(workload_name, backend, system, scale)
                    failures.extend(
                        f"scale={scale} {line}" for line in bad
                    )
                    if verbose:
                        status = "MISMATCH" if bad else "ok"
                        print(f"{status} scale={scale} {workload_name}/"
                              f"{backend}/{system}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="scalar reference vs batch path byte-identity matrix",
    )
    parser.add_argument("--scales", default="0.01",
                        help="comma-separated workload scales")
    parser.add_argument("--workloads", default="scan,select",
                        help="comma-separated workload names")
    parser.add_argument("--systems", default=",".join(SYSTEMS),
                        help="comma-separated memory systems")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the verdict")
    args = parser.parse_args(argv)
    failures = run_matrix(
        scales=[float(s) for s in args.scales.split(",") if s],
        workloads=[w for w in args.workloads.split(",") if w],
        systems=[s for s in args.systems.split(",") if s],
        verbose=not args.quiet,
    )
    if failures:
        print(f"FAIL: {len(failures)} vectorized cells diverged")
        for line in failures:
            print(f"  {line}")
        return EXIT_MISMATCH
    print("ALL OK: batch path byte-identical to the scalar reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
