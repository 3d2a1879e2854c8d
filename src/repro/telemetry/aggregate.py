"""Cross-run aggregation: fold telemetry artifacts into one fleet rollup.

Each recorded run leaves an ``ops.jsonl``, a ``metrics.json`` snapshot,
and — when profiling — a ``profile.jsonl`` span log.  This module folds
any number of those artifacts (and trace-store roots) into a single
**fleet rollup** (``maya.telemetry.rollup.v2``):

* merged metrics via :meth:`MetricsRegistry.merge` — exact counter
  addition and bucket-wise histogram merge, so the rollup's registry
  equals what one registry observing every run would hold;
* cache hit/eviction rates and, for a trace-store root, per-shard entry
  occupancy;
* the span self-time tree from profile logs (total/self wall-clock and
  child coverage per span path).

Everything here is a pure fold over input files: no wall-clock reads, no
randomness, all filesystem enumeration sorted (MAYA031) and all inputs
re-sorted before folding — the rollup is a deterministic function of the
input *set*, independent of argument order.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import MetricsRegistry

__all__ = [
    "ROLLUP_SCHEMA",
    "discover",
    "fleet_rollup",
    "merged_registry",
    "span_tree",
]

ROLLUP_SCHEMA = "maya.telemetry.rollup.v2"


def _parse(line: str) -> dict:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return {}
    return payload if isinstance(payload, dict) else {}


def discover(paths) -> dict:
    """Classify telemetry artifacts under ``paths`` (files or directories).

    A directory may be a telemetry dir (``metrics.json``, ``ops.jsonl``,
    ``profile.jsonl``), a trace-store root (a ``shards/`` tree), or both.
    Returns sorted, de-duplicated path lists keyed by artifact family —
    plus the store roots themselves, so callers can compute shard
    occupancy.
    """
    metrics: list = []
    profiles: list = []
    ops: list = []
    stores: list = []

    def classify_file(path: Path) -> None:
        name = path.name
        if name == "metrics.json" or path.suffix == ".json":
            metrics.append(path)
        elif name == "profile.jsonl":
            profiles.append(path)
        else:
            ops.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_file():
            classify_file(path)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such telemetry path: {path}")
        if (path / "shards").is_dir():
            stores.append(path)
        for name in ("metrics.json", "ops.jsonl", "profile.jsonl"):
            found = path / name
            if found.is_file():
                classify_file(found)

    def unique(items: list) -> list:
        return sorted(set(items), key=str)

    return {
        "metrics": unique(metrics),
        "profiles": unique(profiles),
        "ops": unique(ops),
        "stores": unique(stores),
    }


def merged_registry(metrics_paths) -> MetricsRegistry:
    """Fold ``metrics.json`` snapshots into one registry, in sorted order.

    Counters add exactly and histograms merge bucket-wise, so the result
    equals the snapshot a single registry observing every run would
    have rendered (tested).  Sorting makes the gauge fold deterministic.
    """
    registry = MetricsRegistry()
    for path in sorted(metrics_paths, key=str):
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        registry.merge(payload)
    return registry


# --------------------------------------------------------------------------
# span tree
# --------------------------------------------------------------------------


def span_tree(profile_paths) -> dict:
    """Aggregate profile logs into a self-time tree keyed by span path.

    Span ids repeat across profiler instances (they are deterministic by
    design), so aggregation keys on the *name path* from root to span —
    each file's parent chains are resolved with that file's own id map.
    Returns ``{"wall_s", "roots": [node...]}`` where every node carries
    ``name/count/total_s/self_s`` and, when it has children, ``coverage``
    (the fraction of its wall-clock its children account for).
    """
    stats: dict = {}
    for path in sorted(profile_paths, key=str):
        records = []
        by_id: dict = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            payload = _parse(line)
            if payload.get("type") == "span" and isinstance(payload.get("id"), str):
                records.append(payload)
                by_id[payload["id"]] = payload
        paths_cache: dict = {}

        def name_path(record: dict) -> tuple:
            cached = paths_cache.get(record["id"])
            if cached is not None:
                return cached
            parent = by_id.get(record.get("parent") or "")
            prefix = name_path(parent) if parent is not None else ()
            resolved = prefix + (str(record.get("name")),)
            paths_cache[record["id"]] = resolved
            return resolved

        for record in records:
            node_path = name_path(record)
            node = stats.setdefault(node_path, {"count": 0, "total_s": 0.0, "child_s": 0.0})
            node["count"] += 1
            node["total_s"] += float(record.get("dur_s") or 0.0)
            parent = by_id.get(record.get("parent") or "")
            if parent is not None:
                parent_node = stats.setdefault(
                    name_path(parent), {"count": 0, "total_s": 0.0, "child_s": 0.0}
                )
                parent_node["child_s"] += float(record.get("dur_s") or 0.0)

    def render(node_path: tuple) -> dict:
        node = stats[node_path]
        children = sorted(
            p for p in stats if len(p) == len(node_path) + 1 and p[: len(node_path)] == node_path
        )
        rendered = {
            "name": node_path[-1],
            "count": node["count"],
            "total_s": node["total_s"],
            "self_s": node["total_s"] - node["child_s"],
        }
        if children:
            rendered["coverage"] = (
                node["child_s"] / node["total_s"] if node["total_s"] > 0 else 1.0
            )
            rendered["children"] = [render(child) for child in children]
        return rendered

    roots = sorted(p for p in stats if len(p) == 1)
    return {
        "wall_s": sum(stats[p]["total_s"] for p in roots),
        "roots": [render(p) for p in roots],
    }


# --------------------------------------------------------------------------
# store occupancy
# --------------------------------------------------------------------------


def _store_occupancy(store_roots) -> dict:
    shards_total = 0
    entries_total = 0
    counts: list = []
    for root in sorted(store_roots, key=str):
        shards = Path(root) / "shards"
        for shard in sorted(shards.iterdir()):
            if not shard.is_dir():
                continue
            n = sum(1 for p in sorted(shard.glob("*.npz")) if not p.name.startswith("."))
            if n:
                shards_total += 1
                entries_total += n
                counts.append(n)
    counts.sort()
    if not counts:
        return {"occupied": 0, "entries": 0, "entries_min": 0,
                "entries_median": 0.0, "entries_max": 0}
    middle = len(counts) // 2
    median = (
        float(counts[middle])
        if len(counts) % 2
        else (counts[middle - 1] + counts[middle]) / 2.0
    )
    return {
        "occupied": shards_total,
        "entries": entries_total,
        "entries_min": counts[0],
        "entries_median": median,
        "entries_max": counts[-1],
    }


# --------------------------------------------------------------------------
# rollup
# --------------------------------------------------------------------------


def fleet_rollup(paths) -> dict:
    """The fleet rollup of every telemetry artifact reachable from ``paths``.

    Returns a ``maya.telemetry.rollup.v2`` document.  Deterministic: the
    same input set produces the same rollup whatever the argument order.
    """
    found = discover(paths)
    registry = merged_registry(found["metrics"])
    rendered = registry.render()
    counters = rendered["counters"]
    hits = counters.get("exec.cache.hits", 0)
    misses = counters.get("exec.cache.misses", 0)
    rollup: dict = {
        "schema": ROLLUP_SCHEMA,
        "sources": {
            "metrics_snapshots": len(found["metrics"]),
            "profiles": len(found["profiles"]),
            "stores": len(found["stores"]),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "evictions": counters.get("exec.cache.evictions", 0),
            "compactions": counters.get("exec.cache.compactions", 0),
            "tree_scans": counters.get("exec.cache.tree_scans", 0),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "eviction_rate": (
                counters.get("exec.cache.evictions", 0)
                / counters.get("exec.cache.puts", 0)
                if counters.get("exec.cache.puts", 0)
                else 0.0
            ),
        },
        "metrics": rendered,
    }
    if found["stores"]:
        rollup["store"] = _store_occupancy(found["stores"])
    if found["profiles"]:
        rollup["spans"] = span_tree(found["profiles"])
    return rollup
