"""repro.telemetry — deterministic metrics and operational events.

Maya's security argument rests on internal dynamics; the per-interval
record of them (measured power, mask target, actuator settings) is the
:class:`~repro.machine.trace.Trace` itself.  This package records what the
trace does not: fixed-point clipping and the execution engine's
operational behaviour (cache interactions, batch grouping, attack-pipeline
folds), without ever feeding back into the simulation:

* **Strictly out-of-band.**  A recorder sink is injected (ambient module
  state set by :func:`set_recorder` or the ``REPRO_TELEMETRY`` env var);
  the default is the :class:`NullRecorder`, whose cost is one attribute
  check per emission site.  Simulation state never reads telemetry back,
  and lint rule MAYA032 statically enforces that no ``repro.telemetry``
  symbol flows into machine/controller state — simulation packages may
  only *call* telemetry functions fire-and-forget.
* **Ops stream + metric snapshots.**  Engine-level operational events
  stream to ``ops.jsonl`` under ``REPRO_TELEMETRY_DIR`` (default
  ``.maya-telemetry/``), ordered by sequence number, never the host clock;
  metric snapshots are rendered to ``metrics.json``.
* **Metrics registry.**  Counters, gauges, and fixed-bucket histograms
  (bucket edges are static constants, so rendered output is
  reproducible).

CLI: ``python -m repro.telemetry summarize|overhead`` renders metric and
ops tables and gates the recording overhead against a benchmark budget.

This package counts; it does not time.  For where wall-clock time goes,
profile from the outside: ``expbench/run.py --trace 1`` splits each
benchmark workload per layer, and ``python -m cProfile`` covers any
figure (see the README's "Where did the time go?").
"""

from __future__ import annotations

import json
import os
import subprocess
from bisect import bisect_left
from pathlib import Path

__all__ = [
    "DEFAULT_TELEMETRY_DIR",
    "GROUP_SIZE_HIST_EDGES",
    "METRICS_SCHEMA",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "TelemetryRecorder",
    "count",
    "enabled",
    "gauge",
    "get_recorder",
    "git_sha",
    "observe",
    "ops",
    "set_recorder",
    "write_metrics",
]

METRICS_SCHEMA = "maya.telemetry.metrics.v1"
DEFAULT_TELEMETRY_DIR = ".maya-telemetry"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Static bucket edges for the lock-step batch-group size histogram.
#: Fixed at import time so rendered histograms are reproducible across
#: runs and hosts.
GROUP_SIZE_HIST_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Compact, canonical JSONL encoding shared by every writer.
_JSON_SEPARATORS = (",", ":")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=_JSON_SEPARATORS)


# --------------------------------------------------------------------------
# Metrics registry
# --------------------------------------------------------------------------


class Histogram:
    """Fixed-bucket histogram: static edges, reproducible rendering.

    ``counts[i]`` holds observations with ``value <= edges[i]``; the final
    bucket is the overflow (``value > edges[-1]``).  ``sum`` accumulates in
    observation order, so identical observation sequences render
    identically.
    """

    def __init__(self, edges: tuple) -> None:
        if not edges or list(edges) != sorted(float(e) for e in edges):
            raise ValueError("histogram edges must be a sorted, non-empty tuple")
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.n = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.n += 1
        self.total += value

    def render(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.n,
            "sum": self.total,
        }


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms, rendered sorted."""

    def __init__(self) -> None:
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(n)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float, edges: tuple) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(edges)
        histogram.observe(value)

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def render(self) -> dict:
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.render()
                for name, histogram in sorted(self._histograms.items())
            },
        }


# --------------------------------------------------------------------------
# Run context
# --------------------------------------------------------------------------


def git_sha() -> "str | None":
    """The repository HEAD SHA, or None outside a git checkout."""
    global _GIT_SHA
    if _GIT_SHA is _UNSET:
        sha = os.environ.get("GITHUB_SHA", "").strip() or None
        if sha is None:
            try:
                sha = subprocess.run(
                    ["git", "rev-parse", "HEAD"],
                    capture_output=True,
                    text=True,
                    timeout=5,
                    check=True,
                ).stdout.strip() or None
            except (OSError, subprocess.SubprocessError):
                sha = None
        _GIT_SHA = sha
    return _GIT_SHA


_UNSET = object()
_GIT_SHA: object = _UNSET


# --------------------------------------------------------------------------
# Recorders
# --------------------------------------------------------------------------


class NullRecorder:
    """The default sink: disabled, near-zero cost at every emission site."""

    enabled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullRecorder>"


class TelemetryRecorder:
    """JSONL recorder: an ops stream and metric snapshots."""

    enabled = True

    def __init__(self, root: object = None) -> None:
        if root is None:
            root = (
                os.environ.get("REPRO_TELEMETRY_DIR", "").strip()
                or DEFAULT_TELEMETRY_DIR
            )
        self.root = Path(root)
        self.metrics = MetricsRegistry()
        self._ops_seq = 0

    # -- operational stream -------------------------------------------

    def ops(self, name: str, **fields: object) -> None:
        """Append one engine-level event to ``ops.jsonl``.

        Ops events are ordered by a per-recorder sequence number, not a
        timestamp: the engine layer is not a sanctioned wall-clock site
        (MAYA002), so spans are delimited by begin/end events in sequence
        space.
        """
        payload: dict = {"type": "ops", "seq": self._ops_seq, "ev": str(name)}
        payload.update(fields)
        self._ops_seq += 1
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / "ops.jsonl", "a", encoding="utf-8") as stream:
            stream.write(_dumps(payload) + "\n")

    # -- metrics snapshot ---------------------------------------------

    def write_metrics(self) -> Path:
        payload = {"schema": METRICS_SCHEMA}
        payload.update(self.metrics.render())
        path = self.root / "metrics.json"
        _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# Ambient recorder (the injection point)
# --------------------------------------------------------------------------

_RECORDER: object = None


def get_recorder():
    """The ambient recorder; lazily derived from ``REPRO_TELEMETRY``."""
    global _RECORDER
    if _RECORDER is None:
        if os.environ.get("REPRO_TELEMETRY", "").strip().lower() in _TRUTHY:
            _RECORDER = TelemetryRecorder()
        else:
            _RECORDER = NullRecorder()
    return _RECORDER


def set_recorder(recorder) -> None:
    """Inject a recorder (None re-derives from the environment lazily)."""
    global _RECORDER
    _RECORDER = recorder


def enabled() -> bool:
    return get_recorder().enabled


# --------------------------------------------------------------------------
# Module-level conveniences (no-ops when disabled)
# --------------------------------------------------------------------------


def ops(name: str, **fields: object) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.ops(name, **fields)


def count(name: str, n: int = 1) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.count(name, n)


def gauge(name: str, value: float) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.gauge(name, value)


def observe(name: str, value: float, edges: tuple) -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.observe(name, value, edges)


def write_metrics() -> None:
    recorder = get_recorder()
    if recorder.enabled:
        recorder.write_metrics()
