"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench -q

The smoke tests run every workload at a tiny scale; the full-size
workloads are only run by ``perfbench/run.py`` itself.
"""

from __future__ import annotations

import copy
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from cases import SixSystems, make_case  # noqa: E402
from invariants import run_violations, serve_violations  # noqa: E402
from spans import TARGETS, Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_declared_metric_with_its_unit(workload, trace):
    result = run.run_benchmark(workload, seed=0, seconds=0.01, trace=trace,
                               tiny=True)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics(trace)
    lines = run.report_lines(result, declared)
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        assert final["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert any(line.split()[:1] == [entry["name"]]
                   and line.split()[-1] == entry["unit"] for line in lines)
    if trace:
        metrics = result["metrics"]
        layers = sum(metrics[k] for k in run.LAYER_KEYS)
        assert layers + metrics["trace.other_s"] == pytest.approx(
            metrics["trace.wall_s"])
        assert metrics["trace.other_s"] >= -1e-3 * metrics["trace.wall_s"]
        assert metrics["trace.overhead_ratio"] > 0


def test_times_are_normalised_to_the_nominal_host_speed():
    from reference import NOMINAL_S

    result = run.run_benchmark("scan_point", seed=0, seconds=0.01,
                               trace=False, tiny=True)
    reps, refs = result["rep_seconds"][0], result["ref_seconds"]
    assert len(refs) >= len(reps) + 1
    speed = NOMINAL_S / statistics.median(refs)
    assert result["metrics"]["run_s"] == pytest.approx(
        statistics.median(reps) * speed)


def test_each_repetition_uses_the_blocks_around_it():
    phase = run.Phase()
    phase.ref_before = [[1.0], [3.0, 3.0]]
    phase.ref_after = [5.0]
    assert phase.ref == [1.0, 3.0, 3.0, 5.0]
    assert phase.speeds(1.0) == [1 / 3.0, 1 / 3.0]
    phase.ref_before = [[1.0], [3.0]]
    assert phase.speeds(1.0) == [1 / 2.0, 1 / 4.0]


def test_reference_process_is_stopped():
    from reference import ReferenceProcess

    with ReferenceProcess() as reference:
        first, second = reference.block(), reference.block()
    assert first > 0 and second > 0
    assert reference.proc.returncode == 0


def test_benchmark_json_declares_the_required_metrics():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert {"run_s", "items_per_s", "setup_s", "peak_rss_mb"} <= set(names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _tiny_run(workload: str = "scan_point", system: str = "metal"):
    case = make_case(workload, 0, str(run.WORKDIR), tiny=True)
    case.setup()
    results = case.run_once()
    result = next(r for r in results if r["system"] == system)
    return result, len(case.workload.requests)


def test_checker_accepts_real_results_and_flags_doctored_ones():
    result, requests = _tiny_run()
    assert run_violations(result, requests) == []

    doctored = copy.deepcopy(result)
    doctored["dram"]["bytes_moved"] += 64
    assert any("bytes_moved" in v for v in run_violations(doctored, requests))

    doctored = copy.deepcopy(result)
    doctored["dram"]["row_hits"] += 1
    assert any("row hits" in v for v in run_violations(doctored, requests))

    doctored = copy.deepcopy(result)
    doctored["cache"]["misses"] -= 1
    assert any("cache hits" in v for v in run_violations(doctored, requests))

    assert any("requests" in v for v in run_violations(result, requests + 1))


def test_serve_checker_flags_a_lost_request_and_a_wrong_backend():
    from repro.sim import tile_backend

    case = make_case("serve_sweep", 0, str(run.WORKDIR), tiny=True)
    curve, executor = output = case.run_once()
    checked = case.check(output)
    assert checked.failed == 0 and checked.serves
    assert checked.attempted == len(executor.outcomes) + 1
    model = tile_backend.build_service_model(
        curve.workload, curve.system, curve.scale, curve.seed, curve.tiles)
    try:
        model.base_ns[0] += 1
        assert any("latencies differ" in v
                   for v in case.backend_violations(curve)[1])
        model.base_ns.append(1)
        assert any("walk latencies" in v
                   for v in case.backend_violations(curve)[1])
    finally:
        tile_backend.clear_model_memo()
    data = checked.serves[0]
    assert serve_violations(data) == []
    doctored = copy.deepcopy(data)
    doctored["tiles"][0]["requests"] -= 1
    assert any("tiles served" in v for v in serve_violations(doctored))
    doctored = copy.deepcopy(data)
    doctored["latency_ns"]["count"] -= 1
    assert any("latency_ns" in v for v in serve_violations(doctored))


def _span(id, parent, start, end, fold_s=0.0):
    span = Span(id, parent, 0, f"s{id}", f"k{id}", start, end)
    span.fold_s = fold_s
    return span


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 5.0),
        _span(2, 0, 3.0, 7.0),          # overlaps span 1
        _span(3, 1, 2.0, 3.0),          # nested in span 1: not a child of 0
        _span(4, 0, 6.5, 9.0, fold_s=0.5),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 2.0)  # [1,7] and [6.5,9] -> [1,9]
    assert selfs[1] == pytest.approx(4.0 - 1.0)
    assert selfs[4] == pytest.approx(2.5 - 0.5)
    assert selfs[3] == pytest.approx(1.0)


def test_range_scan_self_times_add_up_to_the_root_span():
    """process_range_scan calls process_walk; the split must still sum."""
    case = SixSystems("select", 0.05, 0)
    case.setup()
    with Tracer() as tracer:
        case.run_once(tracer)
    assert tracer.calls["MetalMemSys.process_walk"] > 0
    assert any(s.name.endswith(".process_range_scan") for s in tracer.spans)
    roots = [s for s in tracer.spans if s.parent < 0]
    wall = sum(s.end - s.start for s in roots)
    total = sum(tracer.layer_self_s().values())
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert all(v >= -1e-9 for v in self_times(tracer.spans).values())


def _bindings() -> dict[tuple[int, str], object]:
    """Every repro module/class binding of every trace target."""
    import importlib

    originals = set()
    for module_name, qualname, *_ in TARGETS:
        module = importlib.import_module(module_name)
        obj = module
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            originals.add(id(obj))
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                found[(id(module), attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    if id(cvalue) in originals:
                        found[(id(value), cattr)] = cvalue
    return found


def test_wrappers_patch_callers_and_are_restored():
    import repro.bench.runner
    import repro.exec.worker
    import repro.sim.metrics

    before = _bindings()
    original = repro.sim.metrics.simulate
    case = make_case("scan_point", 0, str(run.WORKDIR), tiny=True)
    case.setup()
    with Tracer() as tracer:
        assert repro.exec.worker.simulate is not original
        assert repro.bench.runner.simulate is repro.sim.metrics.simulate
        case.run_once(tracer)
    assert tracer.skipped == []
    assert repro.exec.worker.simulate is original
    assert _bindings() == before


def test_exits_2_without_the_program():
    """A directory with only BENCHMARK.json and the benchmark fails fast."""
    bare = run.WORKDIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan_point",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == run.EXIT_NO_PROGRAM
    assert proc.stdout == ""
