"""Run one workload: set up, check, time ops, and build the result.

One process, no worker pool.  Set-up (design build, and the store fill on
a replay workload) happens before timing; every timed op reuses the warm
``DefenseFactory``.  Untraced runs (``trace=False``) give the end-to-end
metrics; traced runs alternate an untraced and a traced op and give the
per-layer metrics.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.exec import TraceCache, batch_key, run_sessions

from .layers import DESIGN_TARGETS, OP_TARGETS, layer_metric_names, layer_metrics
from .tracer import Target, Tracer, patched, unresolved
from .workloads import TraceTap, Workload

__all__ = ["OpRecord", "SETUP_REPEATS", "Outcome", "run_workload", "summarize_ops"]

#: Design builds per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3

#: Where a replay run keeps its trace store (removed when the run ends).
WORK_DIR = ".expbench-work"

_STORE_ENV = ("REPRO_CACHE", "REPRO_CACHE_DIR")


@dataclass
class OpRecord:
    wall_s: float
    traced: bool = False
    sim_s: float = 0.0
    digest: "str | None" = None
    errors: list = field(default_factory=list)
    versus_paper: "dict | None" = None

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class Outcome:
    """What a run prints: the result line and the report beside it."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _log(message: str) -> None:
    print(f"[expbench] {message}", file=sys.stderr, flush=True)


def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _store_state(store: "Path | None") -> "tuple | None":
    if store is None:
        return None
    stats = TraceCache(store).stats()
    return stats["entries"], stats["sessions"], stats["total_bytes"]


def run_op(
    workload: Workload,
    factory,
    seed: int,
    store: "Path | None" = None,
    tracer: "Tracer | None" = None,
    reference: "str | None" = None,
) -> OpRecord:
    """One regeneration of the workload's figure, timed and checked.

    A failed op (it raised, or its output failed a check) is returned
    with its errors, never raised.
    """
    experiment = workload.experiment
    tap = TraceTap()
    taps = [Target("collect", owner, "run_sessions") for owner in experiment.collect_owners]
    before = _store_state(store)
    with ExitStack() as stack:
        # The tracer wraps the program; the tap wraps outside it, so the
        # tap's summary is charged to no layer.
        if tracer is not None:
            stack.enter_context(tracer.installed(OP_TARGETS))
        stack.enter_context(patched(taps, tap.wrapper))
        start = time.perf_counter()
        try:
            result = experiment.run(factory, seed)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            wall_s = time.perf_counter() - start
            return OpRecord(
                wall_s, tracer is not None, errors=[traceback.format_exc(limit=8)]
            )
        wall_s = time.perf_counter() - start
    record = OpRecord(
        wall_s,
        tracer is not None,
        sim_s=tap.sim_s,
        digest=experiment.digest(result),
        errors=experiment.check(result, tap),
        versus_paper=experiment.versus_paper(result),
    )
    if store is not None and _store_state(store) != before:
        record.errors.append("the trace store was written: a session missed")
    if reference is not None and record.digest != reference:
        record.errors.append(f"result digest {record.digest} != {reference}")
    return record


def oracle(workload: Workload, factory, seed: int, store: "Path | None") -> list:
    """Byte-identity check: lock-step (and store) traces equal serial ones."""
    jobs = workload.experiment.oracle_jobs(factory, seed)
    if any(batch_key(job) is None for job in jobs):
        return ["oracle group is not lock-step batchable"]
    serial = run_sessions(jobs, backend="serial", cache=False, factory=factory)
    legs = {"lock-step": run_sessions(jobs, backend="batch", cache=False, factory=factory)}
    if store is not None:
        legs["store"] = TraceCache(store).get_many(jobs)
    errors = []
    for leg, traces in legs.items():
        for job, expected, trace in zip(jobs, serial, traces):
            if trace is None or not expected.equals(trace):
                errors.append(f"{leg} trace differs from serial for {job.run_id}")
    return errors


def tail_percentile(walls: list) -> dict:
    """Highest percentile with at least ten samples beyond it (else the max)."""
    n = len(walls)
    percentile = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 100
    return {
        "percentile": percentile,
        "value": float(np.percentile(walls, percentile)),
        "samples": n,
    }


def summarize_ops(records: list) -> "tuple[int, int, list]":
    """(attempted, failed, successful records)."""
    good = [record for record in records if record.ok]
    return len(records), len(records) - len(good), good


def _medians(rows: list) -> dict:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


@contextmanager
def replay_store(root: Path) -> Iterator[Path]:
    """A fresh trace store, enabled through the environment as a user would.

    The variables are restored and the store deleted when the block ends.
    """
    store = Path(root) / WORK_DIR / f"store-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    saved = {name: os.environ.get(name) for name in _STORE_ENV}
    os.environ.update({"REPRO_CACHE": "1", "REPRO_CACHE_DIR": str(store)})
    try:
        yield store
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(store, ignore_errors=True)
        with suppress(OSError):
            store.parent.rmdir()


def _fill(workload: Workload, factory, seed: int, store: Path) -> OpRecord:
    """The cold op that fills the store; its digest is the replay reference."""
    cold = run_op(workload, factory, seed)
    if not cold.ok:
        raise RuntimeError("store fill failed: " + "; ".join(cold.errors))
    filled = _store_state(store)[1]
    if filled != workload.experiment.sessions:
        raise RuntimeError(f"store holds {filled} sessions after the fill")
    return cold


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    import_s: float,
) -> Outcome:
    """Set up, run the oracle, then run ops until ``seconds`` have passed."""
    design = Tracer()
    builds = []
    with design.installed(DESIGN_TARGETS) if trace else nullcontext():
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            factory = workload.experiment.factory(seed)
            builds.append(time.perf_counter() - start)

    records: list = []
    layer_rows: list = []
    prediction = None
    with replay_store(root) if workload.replay else nullcontext() as store:
        fill_s, reference = 0.0, None
        if store is not None:
            cold = _fill(workload, factory, seed, store)
            fill_s, reference = cold.wall_s, cold.digest
        setup_s = import_s + statistics.median(builds) + fill_s
        _log(f"set-up {setup_s:.3f}s (imports {import_s:.3f}s, builds {builds}, "
             f"fill {fill_s:.3f}s)")
        oracle_errors = oracle(workload, factory, seed, store)
        for error in oracle_errors:
            _log(f"oracle: {error}")

        _reset_peak_rss()
        start = time.perf_counter()
        while not records or time.perf_counter() - start < seconds:
            plain = run_op(workload, factory, seed, store, reference=reference)
            reference = reference or plain.digest
            records.append(plain)
            if trace:
                tracer = Tracer()
                traced = run_op(workload, factory, seed, store, tracer, reference=reference)
                records.append(traced)
                row = layer_metrics(design, sum(builds), tracer, traced.wall_s)
                row["trace.wall_s"] = traced.wall_s
                row["trace.overhead_s"] = traced.wall_s - plain.wall_s
                layer_rows.append(row)
                self_s = {name: layer.self_s for name, layer in tracer.layers.items()}
                self_s["exec.run_sessions.total"] = tracer.layer("exec.run_sessions").total_s
                prediction = {**workload.prediction(row, self_s), "self_s": self_s}
        peak_rss_mb = _peak_rss_mb()

    attempted, failed, good = summarize_ops(records)
    for index, record in enumerate(records):
        kind = "traced op" if record.traced else "op"
        _log(f"{kind} {index}: {record.wall_s:.4f}s {record.errors or 'ok'}")
    plain_ok = [record for record in good if not record.traced]
    walls = [record.wall_s for record in plain_ok]
    metrics: dict = {}
    if trace and layer_rows:
        medians = _medians(layer_rows)
        metrics = {
            name: {"value": medians[name], "unit": unit}
            for name, unit, _ in layer_metric_names()
        }
    elif walls:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "sim_s_per_host_s": {
                "value": statistics.median(r.sim_s / r.wall_s for r in plain_ok),
                "unit": "s/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    report = {
        "workload": workload.name,
        "trace": bool(trace),
        "setup": {"import_s": import_s, "builds_s": builds, "fill_s": fill_s},
        "wall_s_tail": tail_percentile(walls) if walls else None,
        "digests": sorted({record.digest for record in records if record.digest}),
        "versus_paper": good[0].versus_paper if good else None,
        "oracle_errors": oracle_errors,
        "missing_targets": [
            f"{t.layer}={t.owner}:{t.attr}" for t in unresolved(DESIGN_TARGETS + OP_TARGETS)
        ],
        "prediction": prediction,
    }
    correct = bool(metrics) and failed == 0 and not oracle_errors
    return Outcome(correct, attempted, failed, metrics, report)
