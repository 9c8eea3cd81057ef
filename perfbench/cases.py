"""The benchmark's three workloads, run through the program's public API.

Each case has three steps:

* ``setup()`` builds what the program builds before its measured phase
  and returns the seconds that took (0.0 when nothing is built first);
* ``run_once()`` is one repetition of the measured phase. It calls into
  the program through module attributes (``runner.build_memsys``, not a
  name bound at import), so a traced run's wrappers are seen;
* ``check(output)`` runs after the timer stops. It returns a
  :class:`Checked` with the items done, the cells attempted, the
  violations found, the simulated results and the determinism digest.

``nominal_items`` is None when every repetition does the same work;
otherwise repetition times are scaled to that many items.

No case passes an ``engine=``, ``walk_batch=`` or ``backend=`` knob: a
change of the program's defaults shows in the numbers. Modelled caches
start empty in every cell, as they do in the program.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any

from invariants import digest, run_violations, serve_violations
from repro.bench import report, runner, serve
from repro.exec import Executor, ResultStore
from repro.exec.worker import clear_workload_memo
from repro.sim import memsys, tile_backend
from repro.workloads import suite


@dataclass
class Checked:
    """What one repetition produced, as seen by the checks."""

    items: int
    attempted: int
    #: Cells that raised or broke an invariant.
    failed: int
    violations: list[str]
    digest: str
    #: Unique ``RunResult.to_dict()`` of the cells computed this rep.
    runs: list[dict[str, Any]] = field(default_factory=list)
    #: Serve payloads of this rep.
    serves: list[dict[str, Any]] = field(default_factory=list)
    requested: int = 0
    computed: int = 0


class RecordingExecutor(Executor):
    """An in-process ``Executor`` that keeps every outcome it hands out."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(jobs=1, **kwargs)
        self.outcomes: list[Any] = []

    def run(self, specs):
        outcomes = super().run(specs)
        self.outcomes.extend(outcomes)
        return outcomes


def _check_outcomes(outcomes: list[Any]) -> tuple[int, list[str], list[dict], list[dict]]:
    """Failed cells, violations, unique run results and serve payloads.

    A cell that raised or breaks an invariant fails once per request of
    it, deduplicated requests included.
    """
    failed = 0
    violations: list[str] = []
    runs: list[dict[str, Any]] = []
    serves: list[dict[str, Any]] = []
    seen: dict[int, list[str]] = {}
    for outcome in outcomes:
        found = seen.get(id(outcome))
        if found is None:
            if outcome.error is not None:
                found = [f"{outcome.spec.label()} raised:\n{outcome.error}"]
            elif "result" in outcome.payload:
                found = run_violations(outcome.payload["result"])
                if not outcome.cached:
                    runs.append(outcome.payload["result"])
            elif outcome.payload.get("op") == "serve":
                found = serve_violations(outcome.data)
                serves.append(outcome.data)
            else:
                found = []
            seen[id(outcome)] = found
            violations.extend(found)
        failed += bool(found)
    return failed, violations, runs, serves


def clear_host_memos() -> None:
    """Empty the program's per-process host memos, as a fresh process has.

    The exec worker clears the node-block memo before every cell; the
    six-system cases call ``build_memsys``/``simulate`` directly and so
    clear it themselves.
    """
    blocks_for = getattr(memsys, "_blocks_for", None)
    if blocks_for is not None and hasattr(blocks_for, "cache_clear"):
        blocks_for.cache_clear()


class SixSystems:
    """One Table-2 workload through all six memory systems.

    The index is built once in ``setup``; each repetition builds every
    memory system fresh and simulates the full request stream.
    """

    nominal_items = None

    def __init__(self, workload: str, scale: float, seed: int) -> None:
        self.workload_name = workload
        self.scale = scale
        self.seed = seed
        self.workload = None

    def setup(self) -> float:
        # Free the last set-up's index first, so set-up never holds two
        # and the peak RSS stays the measured phase's.
        self.workload = None
        gc.collect()
        started = perf_counter()
        self.workload = suite.build_workload(
            self.workload_name, scale=self.scale, seed=self.seed)
        return perf_counter() - started

    def run_once(self, tracer=None) -> list[dict[str, Any]]:
        workload = self.workload
        results = []
        for kind in runner.SYSTEMS:
            if tracer is not None:
                tracer.new_cell()
            clear_host_memos()
            results.append(runner.run_workload(workload, kind).to_dict())
        return results

    def check(self, output: list[dict[str, Any]]) -> Checked:
        requests = len(self.workload.requests)
        found = [run_violations(result, requests) for result in output]
        return Checked(
            items=sum(result["num_walks"] for result in output),
            attempted=len(output),
            failed=sum(bool(v) for v in found),
            violations=[v for vs in found for v in vs],
            digest=digest(output),
            runs=output,
        )


class ReportFast:
    """``generate_report(scale=0.1, fast=True)`` with a fresh empty store.

    This is what a developer gets after any code change: the store key
    includes the code version, so every cell is computed again. The
    report's cells are fixed by the program, so the seed is not used.
    """

    nominal_items = None

    def __init__(self, scale: float = 0.1, workdir: str = ".") -> None:
        self.scale = scale
        self.workdir = workdir

    def setup(self) -> float:
        return 0.0

    def run_once(self, tracer=None) -> tuple[dict, Any, str]:
        clear_workload_memo()
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        payload: dict[str, Any] = {}
        try:
            executor = RecordingExecutor(store=ResultStore(root=store_dir))
            with executor:
                report.generate_report(scale=self.scale, fast=True,
                                       collect_json=payload, executor=executor)
        except BaseException:
            shutil.rmtree(store_dir, ignore_errors=True)
            raise
        return payload, executor, store_dir

    def check(self, output: tuple[dict, Any, str]) -> Checked:
        payload, executor, store_dir = output
        shutil.rmtree(store_dir, ignore_errors=True)
        failed, violations, runs, serves = _check_outcomes(executor.outcomes)
        stats = executor.stats
        return Checked(
            items=stats.computed,
            attempted=len(executor.outcomes),
            failed=failed,
            violations=violations,
            digest=digest([payload]),
            runs=runs,
            serves=serves,
            requested=stats.requested,
            computed=stats.computed,
        )


class ServeSweep:
    """``run_serve_sweep("scan")`` with the program's defaults.

    Each repetition starts from empty workload and service-model memos,
    as a fresh process would, so the backend cell is simulated again.
    The backend cell runs inside ``build_service_model``, which keeps
    only its walk latencies; ``check`` simulates the same cell again
    through ``run_workload`` to check its result and latencies.
    """

    #: Requests the default sweep serves on seed 0. The seed's Poisson
    #: draw of active users moves the request count by about 20%, so
    #: repetition times are scaled to this count to compare across seeds.
    NOMINAL_ITEMS = 416_715

    def __init__(self, seed: int, **sweep_kwargs: Any) -> None:
        self.seed = seed
        self.sweep_kwargs = sweep_kwargs
        self.nominal_items = None if sweep_kwargs else self.NOMINAL_ITEMS

    def setup(self) -> float:
        return 0.0

    def run_once(self, tracer=None) -> tuple[Any, Any]:
        clear_workload_memo()
        tile_backend.clear_model_memo()
        with RecordingExecutor() as executor:
            curve = serve.run_serve_sweep("scan", seed=self.seed,
                                          executor=executor,
                                          **self.sweep_kwargs)
        return curve, executor

    @staticmethod
    def backend_violations(curve: Any) -> tuple[dict[str, Any], list[str]]:
        """The sweep's backend cell as ``RunResult.to_dict()``, and its
        violations, including a mismatch with the service model's walks."""
        workload = suite.build_workload(curve.workload, scale=curve.scale,
                                        seed=curve.seed)
        result = runner.run_workload(workload, curve.system,
                                     record_latencies=True)
        result_dict = result.to_dict()
        found = run_violations(result_dict, len(workload.requests))
        # The sweep left this model in the memo: no new simulation.
        model = tile_backend.build_service_model(
            curve.workload, curve.system, curve.scale, curve.seed, curve.tiles)
        label = f"serve backend {curve.system}"
        if len(model.base_ns) != result.num_walks:
            found.append(f"{label}: service model has {len(model.base_ns)} "
                         f"walk latencies, backend completed {result.num_walks}")
        elif model.base_ns != [tile_backend.cycles_to_ns(lat)
                               for lat in result.walk_latencies]:
            found.append(f"{label}: service model latencies differ from "
                         f"the backend cell's")
        return result_dict, found

    def check(self, output: tuple[Any, Any]) -> Checked:
        curve, executor = output
        failed, violations, runs, serves = _check_outcomes(executor.outcomes)
        backend, found = self.backend_violations(curve)
        runs.append(backend)
        violations.extend(found)
        curve_dict = asdict(curve)
        curve_dict.pop("results", None)
        return Checked(
            items=sum(point.offered for point in curve.points),
            attempted=len(executor.outcomes) + 1,
            failed=failed + bool(found),
            violations=violations,
            digest=digest([curve_dict, backend]),
            runs=runs,
            serves=serves,
            requested=executor.stats.requested,
            computed=executor.stats.computed,
        )


def make_case(name: str, seed: int, workdir: str, tiny: bool = False):
    """The case for a workload name; ``tiny`` shrinks it for self-tests."""
    if name == "report_fast":
        return ReportFast(scale=0.01 if tiny else 0.1, workdir=workdir)
    if name == "scan_point":
        # 40,000 records in a 10-level B+tree against the 8 KB cache.
        return SixSystems("scan", 0.05 if tiny else 1.0, seed)
    if name == "serve_sweep":
        return ServeSweep(seed, **({"scale": 0.01, "duration_ms": 1}
                                   if tiny else {}))
    raise ValueError(f"unknown workload {name!r}")

