"""Per-layer probes shared by every workload.

Counts come from ``cProfile`` over the program's public entry points;
times come from timing calls into each layer's public functions.  The
program itself is not instrumented.
"""

from __future__ import annotations

import cProfile
import json
import time
from pathlib import Path

from repro.hypergraph.canonical import instance_key, mask_payload, pair_digest
from repro.net.protocol import encode_hypergraph
from repro.store import VerdictStore

from measure import median

#: (module path suffix, function) → per-layer count it feeds.
_PROFILED = {
    ("core/vertex_index.py", "decode"): "core.decode_calls",
    ("core/bitset.py", "mask_sort_key"): "core.mask_sort_calls",
    ("core/bitset.py", "iter_positions"): "core.mask_sort_calls",
    ("hypergraph/operations.py", "project"): "hypergraph.project_calls",
    ("hypergraph/operations.py", "restrict_to_subsets"): "hypergraph.restrict_calls",
    ("complexity/bounds.py", "chi"): "chi_calls",
}
_OPS = {"project", "restrict_to_subsets"}

#: Per-layer metrics of layers a workload does not run: reported as the
#: zero they are, so every workload emits every per-layer metric.
SERVER_ONLY = (
    "service.queue_wait_ms",
    "service.engine_ms",
    "service.pool_hop_ms",
    "service.origin.computed",
    "service.origin.cache",
    "service.origin.dedup",
    "service.cache_hit_share",
    "net.parse_ms",
    "net.serialize_ms",
    "net.write_ms",
    "net.response_bytes",
    "net.late_ms",
    "store.evictions",
)
IN_PROCESS_ONLY = (
    "core.decode_calls",
    "core.mask_sort_calls",
    "hypergraph.project_calls",
    "hypergraph.restrict_calls",
    "hypergraph.ops_s",
    *(f"duality.{m}.{c}" for m in ("bm", "fk-b", "logspace", "tractable") for c in ("nodes", "max_depth")),
    "duality.fk-b.chi_calls",
    "duality.witness_check_ms",
    "select.raced_share",
    "select.regret_s",
    "parallel.plan_s",
    "parallel.shards",
    "parallel.shard_imbalance",
    "parallel.merge_s",
    "parallel.hop_s",
)


def profile_counts(profile: cProfile.Profile) -> dict[str, float]:
    """Call counts of the profiled kernels, and seconds spent in the
    hypergraph operations (cumulative, so nested calls count once)."""
    out = {name: 0 for name in _PROFILED.values()}
    out["hypergraph.ops_s"] = 0.0
    profile.create_stats()
    for (filename, _line, func), row in profile.stats.items():
        _cc, calls, _tt, cumulative, _callers = row
        for (suffix, name), metric in _PROFILED.items():
            if func == name and filename.replace("\\", "/").endswith(suffix):
                out[metric] += calls
                if func in _OPS:
                    out["hypergraph.ops_s"] += cumulative
    return out


def key_ms(instances) -> float:
    """Median ms of the cache-key work the service does per request."""
    times = []
    for item in instances:
        start = time.perf_counter()
        instance_key(item.g, item.h, "fk-b")
        pair_digest(item.g, item.h)
        mask_payload(item.g)
        mask_payload(item.h)
        times.append(time.perf_counter() - start)
    return median(times) * 1000


def encode_probe(instances) -> tuple[float, float]:
    """Median client-side encode ms and median request line bytes."""
    times, sizes = [], []
    for item in instances:
        start = time.perf_counter()
        request = {
            "op": "solve",
            "g": encode_hypergraph(item.g),
            "h": encode_hypergraph(item.h),
        }
        times.append(time.perf_counter() - start)
        sizes.append(len(json.dumps(request)) + 1)
    return median(times) * 1000, median(sizes)


def store_probe(directory: Path, verdicts) -> tuple[float, float]:
    """Median ms of ``VerdictStore.put`` and ``get`` on a scratch store
    holding ``verdicts`` (``(instance, result)`` pairs)."""
    store = VerdictStore(directory / "probe.db")
    puts, gets = [], []
    try:
        keys = []
        for item, result in verdicts:
            key = instance_key(item.g, item.h, result.method)
            digest = pair_digest(item.g, item.h)
            start = time.perf_counter()
            store.put(key, result, digest=digest)
            puts.append(time.perf_counter() - start)
            keys.append(key)
        for key in keys:
            start = time.perf_counter()
            store.get(key)
            gets.append(time.perf_counter() - start)
    finally:
        store.close()
    return median(puts) * 1000, median(gets) * 1000


def common_probes(directory: Path, requests, verdicts) -> dict[str, float]:
    """The probes every workload reports on its own request instances."""
    encode_ms, request_bytes = encode_probe(requests)
    put_ms, get_ms = store_probe(directory, verdicts)
    return {
        "hypergraph.key_ms": key_ms(requests),
        "net.encode_ms": encode_ms,
        "net.request_bytes": request_bytes,
        "store.put_ms": put_ms,
        "store.get_ms": get_ms,
    }
