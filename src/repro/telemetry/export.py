"""Exposition: render registries, rollups and bench trajectories.

* **Canonical JSON** (:func:`to_json`) — sorted keys, stable float
  ``repr``; the form the rollup artifacts are committed in.
* **Bench trajectory** (:func:`bench_history`, surfaced as ``python -m
  repro.bench --history``) — joins BENCH speedup results across
  run-registry manifests and flags regressions against the same floors
  the bench's ``--check`` enforces.
"""

from __future__ import annotations

import json

__all__ = [
    "HISTORY_SCHEMA",
    "SPEEDUP_FLOORS",
    "bench_history",
    "render_history",
    "to_json",
]

HISTORY_SCHEMA = "maya.bench.history.v1"

#: Speedup floors the history report flags against, mirroring the bench's
#: ``--check`` gates (see :mod:`repro.bench`).
SPEEDUP_FLOORS = {
    "batched_speedup": 2.0,
    "auto_speedup": 1.0,
    "packed_read_speedup": 2.0,
}


def to_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# bench trajectory
# --------------------------------------------------------------------------


def bench_history(registry=None, floors: "dict | None" = None) -> dict:
    """Join BENCH results across run-registry manifests, oldest first.

    ``registry`` is a :class:`repro.exec.registry.RunRegistry` (default:
    the ambient one).  Each bench manifest contributes one row of speedup
    results; any metric below its floor (``floors`` overrides
    :data:`SPEEDUP_FLOORS`) is listed in the row's ``flags``.  Results
    with no floor — such as the ``fast_speedup`` and ``parallel_speedup``
    that manifests from before the fast tier's and the process backend's
    removal carry — are skipped.  The report
    carries ``regressions`` — the latest run's flagged metrics — so
    callers can gate on trajectory health.
    """
    if registry is None:
        from ..exec.registry import RunRegistry

        registry = RunRegistry()
    effective = dict(SPEEDUP_FLOORS)
    effective.update(floors or {})
    rows: list = []
    for summary in registry.list_runs():
        if summary.get("kind") != "bench":
            continue
        try:
            manifest = registry.get(summary["run_id"])
        except KeyError:
            continue
        results = manifest.get("results") or {}
        speedups = {
            name: float(value)
            for name, value in sorted(results.items())
            if name in effective and isinstance(value, (int, float))
        }
        flags = sorted(
            name for name, value in speedups.items() if value < effective[name]
        )
        rows.append(
            {
                "run_id": manifest.get("run_id"),
                "name": manifest.get("name"),
                "git_sha": manifest.get("git_sha"),
                "results": speedups,
                "flags": flags,
            }
        )
    return {
        "schema": HISTORY_SCHEMA,
        "floors": dict(sorted(effective.items())),
        "rows": rows,
        "regressions": rows[-1]["flags"] if rows else [],
    }


def render_history(report: dict) -> str:
    """Human-readable table of a :func:`bench_history` report."""
    metrics = sorted(report.get("floors", {}))
    header = f"{'run_id':<18} {'name':<14} " + " ".join(f"{m:>16}" for m in metrics)
    lines = [header]
    for row in report.get("rows", []):
        cells = []
        for metric in metrics:
            value = row.get("results", {}).get(metric)
            mark = "!" if metric in row.get("flags", []) else ""
            cells.append(f"{value:>15.2f}{mark}" if value is not None else f"{'-':>16}")
        run_id = str(row.get("run_id"))[:17]
        lines.append(f"{run_id:<18} {str(row.get('name')):<14} " + " ".join(cells))
    floors = report.get("floors", {})
    lines.append(
        "floors: " + " ".join(f"{m}>={floors[m]:g}" for m in metrics)
    )
    if report.get("regressions"):
        lines.append("REGRESSIONS (latest run): " + ", ".join(report["regressions"]))
    return "\n".join(lines) + "\n"
