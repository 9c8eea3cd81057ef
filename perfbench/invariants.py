"""Conservation checks on simulated outputs, and the determinism digest.

The checks read the JSON forms the program already emits
(``RunResult.to_dict()`` and the serve payload), so they hold for any
internal representation that keeps those forms. Each function returns a
list of human-readable violations; an empty list means the result passed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

#: Bytes per DRAM block access in the modelled memory (64 B lines).
BLOCK_BYTES = 64


def run_violations(result: dict[str, Any], requests: int | None = None) -> list[str]:
    """Violations of one ``RunResult.to_dict()``.

    ``requests`` is the number of walk requests the cell was given, when
    the caller knows it; otherwise the walks the trace generator emitted
    (the probe-depth histogram count) stand in for it.
    """
    bad: list[str] = []
    label = result.get("system", "?")
    walks = result["num_walks"]
    emitted = (result.get("probe_depth") or {}).get("count", walks)
    if requests is not None and walks != requests:
        bad.append(f"{label}: {walks} walks completed != {requests} requests")
    if walks != emitted:
        bad.append(f"{label}: {walks} walks completed != {emitted} walks emitted")
    latency = result.get("latency")
    if latency is not None and latency["count"] != walks:
        bad.append(f"{label}: latency histogram counts {latency['count']} "
                   f"walks, engine completed {walks}")
    dram = result["dram"]
    accesses = dram["accesses"]
    if dram["reads"] + dram["writes"] != accesses:
        bad.append(f"{label}: DRAM reads {dram['reads']} + writes "
                   f"{dram['writes']} != accesses {accesses}")
    if dram["row_hits"] + dram["row_misses"] != accesses:
        bad.append(f"{label}: DRAM row hits {dram['row_hits']} + misses "
                   f"{dram['row_misses']} != accesses {accesses}")
    if dram["bytes_moved"] != BLOCK_BYTES * accesses:
        bad.append(f"{label}: DRAM bytes_moved {dram['bytes_moved']} != "
                   f"{BLOCK_BYTES} x {accesses} accesses")
    cache = result.get("cache")
    if cache is not None and cache["hits"] + cache["misses"] != cache["accesses"]:
        bad.append(f"{label}: cache hits {cache['hits']} + misses "
                   f"{cache['misses']} != accesses {cache['accesses']}")
    return bad


def serve_violations(data: dict[str, Any]) -> list[str]:
    """Violations of one serve payload (``ServeResult.to_dict()``)."""
    bad: list[str] = []
    label = f"serve load {data.get('load')}"
    offered = data["offered"]
    if data["completed"] != offered:
        bad.append(f"{label}: {data['completed']} completed != {offered} offered")
    for hist in ("latency_ns", "lb_wait_ns", "tile_wait_ns", "service_ns"):
        count = data[hist]["count"]
        if count != offered:
            bad.append(f"{label}: {hist} histogram counts {count} != "
                       f"{offered} offered")
    per_tile = sum(tile["requests"] for tile in data["tiles"])
    if per_tile != offered:
        bad.append(f"{label}: tiles served {per_tile} != {offered} offered")
    return bad


def digest(parts: Iterable[Any]) -> str:
    """SHA-256 over the sorted-key JSON of each part, in order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
