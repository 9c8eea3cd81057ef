"""Host-time spans around the program's public functions.

A traced run installs wrappers from this module around the functions in
:data:`TARGETS`, runs the workload, and restores the originals. Nothing
inside ``src/`` is edited: the wrappers replace the names where callers
look them up (every ``repro`` module attribute bound to the original
function, and the class attribute of every ``repro`` class that defines a
wrapped method).

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and cell id;
* a *fold* is for per-walk boundaries, which run hundreds of thousands of
  times per run. It records no span; its call count and self time are
  added to the innermost open span instead.

A span's self time is its duration minus the part of it its direct
child spans cover (their union, so overlapping children are not
subtracted twice) minus the time of folded calls made directly under it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Iterable

SPAN = "span"
FOLD = "fold"

#: Self-time key of the trace emitters, per memory-system name.
EMIT_PREFIX = "memsys.tracegen_s."


def _emit_key(args: tuple) -> str:
    return EMIT_PREFIX + args[0].name


#: (module, function or Class.method, self-time key, wrapper kind,
#: starts a new cell). The key is a string, or a function of the call's
#: positional arguments. Targets missing from the program are skipped
#: and listed by :meth:`Tracer.install`, so the time of a removed
#: function lands in its caller's layer instead of failing the run.
TARGETS: tuple[tuple[str, str, Any, str, bool], ...] = (
    ("repro.workloads.suite", "build_workload", "workloads.build_s", SPAN, False),
    ("repro.bench.runner", "build_memsys", "memsys.build_s", SPAN, False),
    ("repro.sim.memsys", "MemorySystem.process_walk", _emit_key, FOLD, False),
    ("repro.sim.memsys", "MemorySystem.process_range_scan", _emit_key, SPAN, False),
    ("repro.sim.memsys", "MemorySystem.process_chunk", _emit_key, SPAN, False),
    # Batched-walk planning is the vectorized path's share of trace
    # generation; it is not tied to one memory system.
    ("repro.sim.batch", "_plan_chunk", EMIT_PREFIX + "plan", SPAN, False),
    ("repro.core.ix_cache", "IXCache.probe", "ix_cache.probe_s", FOLD, False),
    ("repro.core.ix_cache", "IXCache.insert", "ix_cache.insert_s", FOLD, False),
    ("repro.sim.engine", "Engine.run", "engine.run_s", SPAN, False),
    ("repro.sim.engine", "Engine.run_batch", "engine.run_s", SPAN, False),
    ("repro.sim.engine", "Engine.run_functional", "engine.run_s", SPAN, False),
    ("repro.sim.metrics", "simulate", "post.self_s", SPAN, False),
    ("repro.sim.batch", "simulate_batched", "post.self_s", SPAN, False),
    ("repro.exec.executor", "Executor.run", "exec.self_s", SPAN, False),
    ("repro.exec.worker", "execute_spec", "exec.worker_self_s", SPAN, True),
    ("repro.exec.store", "ResultStore.get", "exec.store_get_s", SPAN, False),
    ("repro.exec.store", "ResultStore.put", "exec.store_put_s", SPAN, False),
    ("repro.bench.report", "generate_report", "report.self_s", SPAN, False),
    ("repro.serve.engine", "simulate_serve", "serve.sim_s", SPAN, False),
    ("repro.sim.tile_backend", "build_service_model", "serve.backend_s", SPAN, False),
)


class Span:
    """One recorded call of a span-wrapped function."""

    __slots__ = ("id", "parent", "cell", "name", "key", "start", "end",
                 "fold_s", "folds")

    def __init__(self, id: int, parent: int, cell: int, name: str, key: str,
                 start: float = 0.0, end: float = 0.0) -> None:
        self.id = id
        self.parent = parent
        self.cell = cell
        self.name = name
        self.key = key
        self.start = start
        self.end = end
        #: Total duration of folded calls made directly under this span.
        self.fold_s = 0.0
        #: key -> [calls, self seconds] of folded calls anywhere under
        #: this span that no inner span owns.
        self.folds: dict[str, list] = {}

    def to_list(self) -> list:
        return [self.id, self.parent, self.cell, self.name, self.key,
                self.start, self.end, self.fold_s, self.folds]


class _Fold:
    """Stack frame of an open folded call."""

    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time: duration minus the union of direct children
    minus the folded calls made directly under it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        - span.fold_s
        for span in spans
    }


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        #: Folded calls made outside any span: key -> [calls, self s].
        self.orphan_folds: dict[str, list] = {}
        self.cell = 0
        self.skipped: list[str] = []
        self._stack: list[Any] = []
        self._owner: Span | None = None
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def new_cell(self) -> int:
        """Start a new cell: spans opened from here on share its id."""
        self.cell += 1
        return self.cell

    def _span_wrapper(self, fn: Callable, name: str, key: Any,
                      starts_cell: bool) -> Callable:
        key_of = key if callable(key) else (lambda args, key=key: key)
        fold = self._fold_wrapper(fn, name, key)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and type(stack[-1]) is _Fold:
                # Spans only nest in spans; under a folded call this
                # call folds too, so its time is never counted twice.
                return fold(*args, **kwargs)
            if starts_cell:
                self.cell += 1
            parent = stack[-1] if stack else None
            span = Span(self._next_id, parent.id if parent else -1,
                        self.cell, name, key_of(args))
            self._next_id += 1
            self.calls[name] += 1
            stack.append(span)
            owner, self._owner = self._owner, span
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self._owner = owner
                self.spans.append(span)

        return wrapper

    def _fold_wrapper(self, fn: Callable, name: str, key: Any) -> Callable:
        key_of = key if callable(key) else (lambda args, key=key: key)
        stack = self._stack
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Fold()
            stack.append(frame)
            calls[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    parent = stack[-1]
                    if type(parent) is _Fold:
                        parent.child_s += dur
                    else:
                        parent.fold_s += dur
                owner = self._owner
                folds = owner.folds if owner is not None else self.orphan_folds
                k = key_of(args)
                entry = folds.get(k)
                if entry is None:
                    folds[k] = [1, dur - frame.child_s]
                else:
                    entry[0] += 1
                    entry[1] += dur - frame.child_s

        return wrapper

    def layer_self_s(self) -> dict[str, float]:
        """Self-time key -> total self seconds over everything recorded."""
        totals: dict[str, float] = defaultdict(float)
        selfs = self_times(self.spans)
        for span in self.spans:
            totals[span.key] += selfs[span.id]
            for k, (_, s) in span.folds.items():
                totals[k] += s
        for k, (_, s) in self.orphan_folds.items():
            totals[k] += s
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        """Wall durations of every recorded span of ``name``."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        """Write every recorded span as JSON (once, when the run ends)."""
        with open(path, "w") as f:
            json.dump({
                "columns": ["id", "parent", "cell", "name", "key", "start",
                            "end", "fold_s", "folds"],
                "spans": [s.to_list() for s in self.spans],
                "orphan_folds": self.orphan_folds,
                "calls": dict(self.calls),
            }, f)

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target present in the program.

        A tracer can be installed again after :meth:`restore`; what it
        recorded is kept.
        """
        self.skipped = []
        wrapped: dict[int, tuple[Any, Any]] = {}
        for module_name, qualname, key, kind, starts_cell in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.skipped.append(f"{module_name}.{qualname}")
                continue
            if "." in qualname:
                class_name, attr = qualname.split(".", 1)
                base = getattr(module, class_name, None)
                owners = [c for c in _repro_classes(base)
                          if attr in c.__dict__] if base is not None else []
            else:
                attr = qualname
                owners = [module] if hasattr(module, attr) else []
            if not owners:
                self.skipped.append(f"{module_name}.{qualname}")
                continue
            for owner in owners:
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                name = (f"{owner.__name__}.{attr}" if isinstance(owner, type)
                        else attr)
                wrapper = (self._fold_wrapper(original, name, key) if kind == FOLD
                           else self._span_wrapper(original, name, key, starts_cell))
                wrapped[id(original)] = (original, wrapper)
                self._patch(owner, attr, original, wrapper)
        # Callers that imported a wrapped function by name hold their own
        # binding; rebind those too.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                pair = wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patch(module, attr, value, pair[1])

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        if getattr(owner, attr) is wrapper:
            return
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def restore(self) -> None:
        """Put every original back, including bindings made while traced."""
        originals = {id(w): (w, o) for _, _, o, w in self._patches}
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def _repro_modules() -> list[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _repro_classes(base: type) -> list[type]:
    """``base`` and its subclasses defined in ``repro`` modules."""
    found: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in found or not cls.__module__.startswith("repro"):
            continue
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
