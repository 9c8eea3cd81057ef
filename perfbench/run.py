"""The repository benchmark: host time of the simulator's user commands.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan_point --seed 0 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Their times are normalised to a nominal host speed with the reference
blocks of :mod:`reference`, run before each repetition and after the last.
``--trace 1`` runs one discarded warm-up repetition, measures the same
workload untraced for half the remaining time, then with the span wrappers
of :mod:`spans` for the other half, and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in.
Without it the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: temporary result stores and spans.
WORKDIR = ROOT / ".perfbench"

#: The workload build is repeated this many times per run, and the
#: fresh-interpreter import this many; setup_s adds the two medians.
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5

#: Before each repetition, reference blocks run until their time reaches
#: this share of the repetition before; enough blocks that their median
#: follows the host's drift, not the noise of single blocks.
REF_SHARE = 0.5

#: Timed in a fresh interpreter: what every CLI invocation pays.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro, repro.cli; "
    "print(time.perf_counter() - t)"
)

EXIT_NO_PROGRAM = 2

WORKLOADS = ("report_fast", "scan_point", "serve_sweep")


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing ``repro`` and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


class Phase:
    """The repetitions of one measured phase, untraced or traced."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        #: Seconds scaled to the case's nominal work (see cases.py).
        self.scaled: list[float] = []
        self.rates: list[float] = []
        self.checked: list[Any] = []
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.digests: list[str] = []
        #: Seconds of the reference blocks run just before each repetition
        #: in ``seconds``, and of those after the last one.
        self.ref_before: list[list[float]] = []
        self.ref_after: list[float] = []

    @property
    def ref(self) -> list[float]:
        """Seconds of every reference block, in the order they ran."""
        return [b for group in self.ref_before for b in group] + self.ref_after

    def speeds(self, nominal_s: float) -> list[float]:
        """Per repetition: the nominal host speed over the measured one.

        The measured speed is the median of the reference blocks run just
        before and just after the repetition, so drift within a run is
        followed too. A slower host gives a smaller factor.
        """
        after = self.ref_before[1:] + [self.ref_after]
        return [nominal_s / statistics.median(b + a)
                for b, a in zip(self.ref_before, after)]


def measure(case: Any, seconds: float, tracer: Any = None,
            reference: Any = None) -> Phase:
    """Repeat the case's measured phase for about ``seconds``.

    At least one repetition runs; another starts only if it is expected
    to end within ``seconds``, judged by the last repetition's time.
    With a ``reference``, reference blocks run before each repetition
    (see :data:`REF_SHARE`), within ``seconds``, and one after the last.
    The tracer's wrappers are installed only while a repetition's timer
    runs; checks run after it stops, untraced. Each repetition starts
    after a full collection, so the collector's work does not depend on
    what the repetition before left behind.
    """
    phase = Phase()
    started = perf_counter()
    last = rep_seconds = 0.0
    # Reference blocks run since the last repetition that completed.
    pending: list[float] = []
    while not phase.attempted or perf_counter() - started + last <= seconds:
        block_started = perf_counter()
        while reference is not None and (
                not pending or sum(pending) < REF_SHARE * rep_seconds):
            pending.append(reference.block())
        gc.collect()
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = perf_counter()
            try:
                output = case.run_once(tracer)
                error = None
            except Exception:
                error = traceback.format_exc()
            rep_seconds = perf_counter() - t0
        last = perf_counter() - block_started
        if error is not None:
            phase.attempted += 1
            phase.failed += 1
            phase.violations.append(error)
            continue
        phase.ref_before.append(pending)
        pending = []
        checked = case.check(output)
        nominal = case.nominal_items
        phase.seconds.append(rep_seconds)
        phase.scaled.append(
            rep_seconds * nominal / checked.items if nominal else rep_seconds)
        phase.rates.append(checked.items / rep_seconds)
        phase.checked.append(checked)
        phase.attempted += checked.attempted
        phase.failed += checked.failed
        phase.violations.extend(checked.violations)
        phase.digests.append(checked.digest)
    if reference is not None:
        phase.ref_after = [*pending, reference.block()]
    return phase


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def simulated_counts(checked: Any) -> dict[str, float]:
    """Per-layer counts of the modelled machine, from one repetition.

    These repeat exactly under a change that only alters host speed.
    """
    runs = checked.runs
    requested, computed = checked.requested, checked.computed
    walks = sum(r["num_walks"] for r in runs)
    metal = [r for r in runs if r["system"] == "metal"]
    metal_walks = sum(r["num_walks"] for r in metal)
    accesses = sum(r["dram"]["accesses"] for r in runs)

    def metal_ratio(field: str) -> float:
        return sum(r[field] for r in metal) / metal_walks if metal_walks else 0.0

    def metal_cache(field: str) -> int:
        return sum((r["cache"] or {}).get(field, 0) for r in metal)

    gaps = [r["index_dram_accesses"] / r["baseline_index_accesses"] - 1.0
            for r in runs if r["baseline_index_accesses"]]
    return {
        "workloads.walks": walks,
        "ix_cache.short_circuit_ratio": metal_ratio("short_circuited"),
        "ix_cache.full_hit_ratio": metal_ratio("full_hits"),
        "ix_cache.nodes_per_walk": metal_ratio("nodes_visited"),
        "ix_cache.insertions": metal_cache("insertions"),
        "ix_cache.evictions": metal_cache("evictions"),
        "ix_cache.bypasses": metal_cache("bypasses"),
        "engine.sim_cycles": sum(r["makespan"] for r in runs),
        "dram.accesses": accesses,
        "dram.row_hit_ratio": (
            sum(r["dram"]["row_hits"] for r in runs) / accesses
            if accesses else 0.0),
        "dram.bytes_moved": sum(r["dram"]["bytes_moved"] for r in runs),
        "post.ws_baseline_gap": max([0.0, *gaps]),
        "exec.cells_requested": requested,
        "exec.cells_computed": computed,
        "exec.dedup_ratio": (
            (requested - computed) / requested if requested else 0.0),
        "serve.requests": sum(s["offered"] for s in checked.serves),
    }


#: Self-time keys of the layers; with ``trace.other_s`` they add up to
#: ``trace.wall_s``.
LAYER_KEYS = (
    "workloads.build_s", "memsys.build_s", "memsys.tracegen_s",
    "ix_cache.probe_s", "ix_cache.insert_s", "engine.run_s",
    "post.self_s", "exec.self_s", "exec.worker_self_s",
    "exec.store_get_s", "exec.store_put_s", "report.self_s",
    "serve.sim_s", "serve.backend_s",
)

#: Systems with their own trace-generation metric in BENCHMARK.json.
SYSTEMS = ("stream", "address", "fa_opt", "xcache", "metal_ix", "metal")


def layer_metrics(tracer: Any, traced: Phase, untraced: Phase) -> dict[str, float]:
    """Per-repetition host-time split of the traced phase."""
    from spans import EMIT_PREFIX

    reps = len(traced.seconds) or 1
    totals = tracer.layer_self_s()
    per_rep = {k: v / reps for k, v in totals.items()}
    out = {k: per_rep.get(k, 0.0) for k in LAYER_KEYS}
    out["memsys.tracegen_s"] = sum(
        v for k, v in per_rep.items() if k.startswith(EMIT_PREFIX))
    for system in SYSTEMS:
        out[EMIT_PREFIX + system] = per_rep.get(EMIT_PREFIX + system, 0.0)

    calls = tracer.calls
    out["memsys.emit_calls"] = sum(
        n for name, n in calls.items()
        if name.endswith((".process_walk", ".process_range_scan",
                          ".process_chunk"))) / reps
    out["ix_cache.probe_calls"] = calls.get("IXCache.probe", 0) / reps
    out["ix_cache.insert_calls"] = calls.get("IXCache.insert", 0) / reps

    from cases import Checked

    counts = simulated_counts(
        traced.checked[0] if traced.checked else Checked(0, 0, 0, [], ""))
    out.update(counts)
    walks = counts["workloads.walks"]
    out["engine.ns_per_walk"] = out["engine.run_s"] / walks * 1e9 if walks else 0.0
    requests = counts["serve.requests"]
    out["serve.ns_per_request"] = (
        out["serve.sim_s"] / requests * 1e9 if requests else 0.0)
    cells = tracer.durations("execute_spec")
    out["exec.cell_s.p50"] = _percentile(cells, 50)
    out["exec.cell_s.p80"] = _percentile(cells, 80)

    wall = statistics.fmean(traced.seconds) if traced.seconds else 0.0
    out["trace.wall_s"] = wall
    out["trace.other_s"] = wall - sum(out[k] for k in LAYER_KEYS)
    out["trace.overhead_ratio"] = (
        statistics.median(traced.seconds) / statistics.median(untraced.seconds)
        if traced.seconds and untraced.seconds else 0.0)
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> dict[str, Any]:
    """Set up, measure and check one workload.

    Returns the fields of the printed result plus the check problems,
    the simulated-output digest and the repetition times.
    """
    from cases import make_case
    from reference import NOMINAL_S, ReferenceProcess, pin_to_current_cpu

    WORKDIR.mkdir(exist_ok=True)
    pin_to_current_cpu()
    case = make_case(workload, seed, str(WORKDIR), tiny=tiny)
    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    builds = [case.setup() for _ in range(SETUP_SAMPLES)]
    setup_rss_mb = peak_rss_mb()

    phases = []
    started = perf_counter()
    if trace:
        # One discarded repetition pays the first-run costs (lazy imports,
        # the code-version hash), so they fall on neither side of
        # trace.overhead_ratio. Its outputs are still checked. It counts
        # against --seconds, so a traced run takes no longer than another.
        phases.append(measure(case, 0.0))
        seconds = max(0.0, seconds - (perf_counter() - started)) / 2
    with ReferenceProcess() as reference:
        untraced = measure(case, seconds, reference=reference)
    phases.append(untraced)
    ref_s = statistics.median(untraced.ref)
    metrics: dict[str, float]
    if trace:
        from spans import Tracer

        tracer = Tracer()
        traced = measure(case, seconds, tracer)
        phases.append(traced)
        tracer.write(str(WORKDIR / f"spans-{workload}-seed{seed}.json"))
        for name in tracer.skipped:
            print(f"note: {name} not found in the program; not traced",
                  file=sys.stderr)
        metrics = layer_metrics(tracer, traced, untraced)
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["workloads.setup_build_s"] = statistics.median(builds)
        metrics["host.ref_s"] = ref_s
    else:
        speeds = untraced.speeds(NOMINAL_S)
        metrics = {
            "run_s": statistics.median(
                [t * f for t, f in zip(untraced.scaled, speeds)] or [0.0]),
            "items_per_s": statistics.median(
                [r / f for r, f in zip(untraced.rates, speeds)] or [0.0]),
            # Set-up runs before the repetitions: the whole run's speed.
            "setup_s": (statistics.median(imports)
                        + statistics.median(builds)) * NOMINAL_S / ref_s,
            "peak_rss_mb": peak_rss_mb(),
        }

    digests = {d for phase in phases for d in phase.digests}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [v for p in phases for v in p.violations]
    if len(digests) > 1:
        problems.append(f"simulated outputs differ between repetitions: "
                        f"{sorted(digests)}")
    if trace and metrics["trace.other_s"] < -1e-3 * metrics["trace.wall_s"]:
        problems.append(f"layer self times exceed the traced wall time by "
                        f"{-metrics['trace.other_s']:.6f} s")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "digest": next(iter(digests)) if len(digests) == 1 else None,
        "rep_seconds": [p.seconds for p in phases],
        "ref_seconds": untraced.ref,
        "setup_rss_mb": setup_rss_mb,
    }


def declared_metrics(trace: bool) -> list[dict[str, str]]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: the program's seed 0)")
    parser.add_argument("--seconds", type=float, default=38.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics of a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    declared = declared_metrics(bool(args.trace))

    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("\n".join(report_lines(result, declared)))
    return 0


def report_lines(result: dict[str, Any], declared: list[dict[str, str]]) -> list[str]:
    """One line per declared metric with its unit, then the JSON result."""
    metrics = result["metrics"]
    printed: dict[str, dict[str, Any]] = {}
    lines = []
    for entry in declared:
        value = metrics[entry["name"]]
        printed[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"{entry['name']:32s} {value:>16.6g} {entry['unit']}")
    reps = "; ".join(" ".join(f"{v:.3f}" for v in phase)
                     for phase in result["rep_seconds"])
    lines.append(f"repetition seconds: {reps}")
    refs = " ".join(f"{v:.3f}" for v in result["ref_seconds"])
    lines.append(f"reference block seconds: {refs}")
    lines.append(f"peak RSS after set-up: {result['setup_rss_mb']:.1f} MB")
    lines.append(f"simulated-output digest: {result['digest']}")
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": printed,
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
