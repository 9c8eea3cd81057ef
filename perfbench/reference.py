"""A fixed reference workload that measures the host's current speed.

The benchmark runs on a shared host whose speed drifts with neighbour
load: the same repetition of the same code takes up to twice as long a
few minutes later, and every piece of Python code slows alike. A run's
times are therefore divided by the host speed measured during the run.

The reference is a block of fixed pure-Python work that resembles the
simulator's host work: a B+tree walk with a set-associative cache, an
event heap and a DRAM row table (with a numpy lookup), JSON encoding of
nested records, and allocation of small objects. It does not import the
program, so no change to the program changes its speed. Blocks run in a
child process, :class:`ReferenceProcess`, pinned to the benchmark's CPU,
one at a time while the benchmark waits: the program's heap does not
change a block's work, and the block's memory does not count in the
benchmark's peak.

``python3 perfbench/reference.py`` prints the median block time of 15
blocks; :data:`NOMINAL_S` was measured that way.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

#: Seconds of one block at the host speed the benchmark's times are
#: normalised to: the median of 15 blocks on a shared 2-vCPU x86-64 Linux
#: container, Python 3.11, numpy 2.4, on 2026-10-17. Only the ratio of two
#: runs' times matters; this constant sets the scale, so that a normalised
#: time reads as the seconds the run would have taken at that speed.
NOMINAL_S = 0.4

#: Walks of the index kernel per block.
WALKS = 20_000


class _Node:
    __slots__ = ("keys", "kids", "addr")

    def __init__(self, keys: list[int], kids: list[_Node] | None, addr: int) -> None:
        self.keys = keys
        self.kids = kids
        self.addr = addr


class _Record:
    __slots__ = ("key", "payload")

    def __init__(self, key: int, payload: list[int]) -> None:
        self.key = key
        self.payload = payload


def _build_tree(leaves: int = 32_768, fanout: int = 8) -> tuple[_Node, int]:
    addr = 0
    level = []
    for i in range(leaves):
        level.append(_Node(list(range(i * fanout, (i + 1) * fanout)), None, addr))
        addr += 1
    while len(level) > 1:
        upper = []
        for j in range(0, len(level), fanout):
            kids = level[j:j + fanout]
            upper.append(_Node([k.keys[0] for k in kids[1:]], kids, addr))
            addr += 1
        level = upper
    return level[0], leaves * fanout


def _walks(root: _Node, keys: int, walks: int) -> tuple[int, ...]:
    """Index walks through a 64-set, 8-way cache with aging counters."""
    sets: list[dict[int, int]] = [{} for _ in range(64)]
    hits = misses = row_hits = cycle = 0
    rows: dict[int, int] = {}
    events: list[tuple[int, int]] = []
    table = np.arange(1024) * 7
    x = 12345
    for walk in range(walks):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 4) % keys
        node = root
        depth = 0
        while node.kids is not None:
            ways = sets[node.addr & 63]
            if node.addr in ways:
                ways[node.addr] = 0
                hits += 1
                latency = 4
            else:
                misses += 1
                latency = 60
                if len(ways) >= 8:
                    del ways[max(ways, key=ways.__getitem__)]
                    for tag in ways:
                        ways[tag] += 1
                ways[node.addr] = 2
            bank, row = node.addr & 7, node.addr >> 6
            if rows.get(bank) == row:
                row_hits += 1
            else:
                rows[bank] = row
            heapq.heappush(events, (cycle + latency + depth, walk))
            node = node.kids[bisect.bisect_right(node.keys, key)]
            depth += 1
        while events and events[0][0] <= cycle:
            heapq.heappop(events)
        cycle += 3
        if walk % 64 == 0:
            cycle += int(np.searchsorted(table, key % 7168))
    return hits, misses, row_hits, cycle


def _encode(records: int = 20_000) -> int:
    data = [{"key": i, "path": [i, 2 * i, "n" * (i % 7)], "stats": {"hits": i}}
            for i in range(records)]
    return len(json.loads(json.dumps(data, sort_keys=True)))


def _allocate(objects: int = 100_000) -> int:
    records = [_Record(i, [i]) for i in range(objects)]
    return sum(r.payload[0] for r in records[::1000])


def _arith(steps: int = 400_000) -> int:
    x = 0
    for i in range(steps):
        x = (x * 31 + i) % 1_000_003
    return x


class Reference:
    """The reference block, with its index built once."""

    def __init__(self) -> None:
        self.root, self.keys = _build_tree()
        self.expected: tuple[int, ...] | None = None

    def block(self) -> float:
        """Seconds one block takes now. Raises if its result changed."""
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            result = (*_walks(self.root, self.keys, WALKS), _encode(),
                      _allocate(), _arith())
            seconds = perf_counter() - started
        finally:
            gc.enable()
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            raise RuntimeError(f"reference block result changed: {result}")
        return seconds


def _current_cpu() -> int | None:
    """The CPU this process runs on now, from ``/proc/self/stat``."""
    try:
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def pin_to_current_cpu() -> None:
    """Keep this process, and the children it starts, on its current CPU.

    The vCPUs of a shared host run at different speeds; the reference
    must measure the one the program runs on. Does nothing where
    affinity cannot be set.
    """
    cpu = _current_cpu()
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


class ReferenceProcess:
    """A child process that runs one reference block per request.

    Use as a context manager; the child is stopped and waited for on
    every way out.
    """

    def __enter__(self) -> ReferenceProcess:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def block(self) -> float:
        """Seconds one block takes now, run in the child."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"reference process ended with code {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc: object) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def _serve() -> None:
    """Run a block for each line on stdin; print its seconds."""
    reference = Reference()
    for _ in sys.stdin:
        print(repr(reference.block()), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        reference = Reference()
        times = [reference.block() for _ in range(15)]
        print(f"median {statistics.median(times):.4f} s, "
              f"min {min(times):.4f} s, max {max(times):.4f} s")
