"""One choke point for every simulation batch: :func:`run_sessions`.

Every experiment and the attack pipeline route their :class:`SessionJob`
specs through :func:`run_sessions`, which

* resolves the execution backend (explicit argument > ``REPRO_BACKEND``
  env > ``"auto"``) — adaptive selection (``"auto"``,
  :func:`choose_backend`), a plain in-process loop (``"serial"``), or the
  vectorized lock-step backend (``"batch"``, :mod:`repro.exec.batch`);
* consults the content-addressed trace cache before simulating anything;
* under the batch backend, groups compatible jobs — fixed-duration and
  run-to-completion alike — by :func:`~repro.exec.batch.batch_key` and
  advances each group lock-step, falling back to the serial runner for
  temperature-recording sessions, which cannot batch;
* returns the traces **strictly in job order**.

Determinism guarantee (tested): ``run_sessions(jobs, backend=b)`` returns
traces bit-identical to the serial path for every backend ``b``.
"""

from __future__ import annotations

import os

from .. import telemetry
from ..defenses.designs import DefenseFactory
from .batch import batch_key, execute_jobs_batched
from .cache import default_cache

__all__ = [
    "BACKENDS",
    "BATCH_SIZE",
    "choose_backend",
    "resolve_backend",
    "run_sessions",
]

#: Execution backends :func:`run_sessions` can route jobs through.
#: ``"auto"`` resolves to one of the concrete two per run (see
#: :func:`choose_backend`).
BACKENDS = ("auto", "serial", "batch")

#: Sessions simulated lock-step per batch.  Large enough to amortize the
#: per-interval numpy dispatch over a typical fleet, small enough that the
#: ``(B, ticks)`` blocks stay cache-resident.
BATCH_SIZE = 32


def resolve_backend(backend: object = None) -> str:
    """Backend name: explicit argument > ``REPRO_BACKEND`` env > ``"auto"``.

    An explicit ``backend`` of ``None`` or ``""`` means "unset" and defers
    to the environment.  The backend only selects how the jobs the cache
    could not answer are simulated.
    """
    if backend is None or backend == "":
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "auto"
    backend = str(backend)
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    return backend


def choose_backend(jobs) -> str:
    """The concrete backend ``"auto"`` picks for ``jobs``.

    The heuristic is deliberately conservative — it must never pick a
    backend slower than serial:

    * one (or zero) jobs: ``"serial"`` — nothing to amortize;
    * a majority of jobs groupable by :func:`batch_key` (every job but a
      temperature-recording one): ``"batch"`` — lock-step vectorization
      wins even on one core (measured ≥2x on the smoke bench, and 2x on
      Fig. 14's run-to-completion sessions) and batches of ≥2 amortize
      its setup;
    * else ``"serial"``.
    """
    jobs = list(jobs)
    if len(jobs) <= 1:
        return "serial"
    batchable = sum(1 for job in jobs if batch_key(job) is not None)
    if 2 * batchable >= len(jobs):
        return "batch"
    return "serial"


def run_sessions(
    jobs,
    cache: object = None,
    factory: DefenseFactory | None = None,
    backend: object = None,
) -> list:
    """Execute ``jobs`` and return their traces **in job order**.

    * ``cache`` — a :class:`TraceCache`, ``None`` (use the env-gated
      default: ``REPRO_CACHE=1`` enables it), or ``False`` to disable
      caching regardless of the environment.
    * ``factory`` — optional in-process :class:`DefenseFactory` matching
      the jobs' declarative description; purely an optimization (avoids
      rebuilding Maya designs).
    * ``backend`` — see :func:`resolve_backend`.  Every backend returns
      bit-identical traces; only the simulation loop differs.
    """
    jobs = list(jobs)
    backend = resolve_backend(backend)
    if backend == "auto":
        backend = choose_backend(jobs)
        telemetry.ops("run.auto_backend", backend=backend)
    if cache is None:
        cache = default_cache()
    elif cache is False:
        cache = None

    telemetry.ops(
        "run.begin",
        jobs=len(jobs),
        backend=backend,
        cached=cache is not None,
    )
    # One bulk lookup for the whole run: a single journal refresh (and a
    # single LRU-touch append) covers every job, and packed group entries
    # are opened once per group rather than once per session.
    if cache is not None:
        results = cache.get_many(jobs)
    else:
        results = [None] * len(jobs)
    pending: list = []
    for index, trace in enumerate(results):
        if trace is None:
            pending.append(index)
        else:
            telemetry.ops("job.cached", index=index)

    telemetry.count("exec.jobs.total", len(jobs))
    telemetry.count("exec.jobs.executed", len(pending))
    if pending:
        if backend == "batch":
            _execute_batched(jobs, pending, results, factory, cache)
        else:
            _execute_serial(jobs, pending, results, factory, cache)
    telemetry.ops(
        "run.end",
        jobs=len(jobs),
        executed=len(pending),
        hits=len(jobs) - len(pending),
    )
    telemetry.write_metrics()
    return results


def _execute_serial(jobs, indices, results, factory, cache, **ops_fields):
    """Run the jobs at ``indices`` one at a time through the serial runner."""
    for index in indices:
        telemetry.ops("job.begin", index=index, **ops_fields)
        results[index] = jobs[index].execute(factory=factory)
        if cache is not None:
            cache.put(jobs[index], results[index])
        telemetry.ops("job.end", index=index)


def _execute_batched(jobs, pending, results, factory, cache):
    """Advance compatible pending jobs lock-step; serial-fallback the rest.

    Jobs are grouped by :func:`batch_key` through an insertion-ordered
    dict, so grouping — like everything else in this layer — is a pure
    function of job order (MAYA030).  Each group is chunked to
    :data:`BATCH_SIZE` sessions and simulated by
    :func:`execute_jobs_batched`, completion-mode groups included (each
    row leaves its chunk at its own deadline); ungroupable jobs
    (temperature-recording) run through the ordinary serial runner.
    Results land at their job's index either way.
    """
    groups: dict = {}
    ungroupable: list = []
    for index in pending:
        key = batch_key(jobs[index])
        if key is None:
            ungroupable.append(index)
        else:
            groups.setdefault(key, []).append(index)
    for indices in groups.values():
        for start in range(0, len(indices), BATCH_SIZE):
            chunk = indices[start:start + BATCH_SIZE]
            chunk_jobs = [jobs[index] for index in chunk]
            telemetry.ops("batch.group", size=len(chunk), indices=list(chunk))
            telemetry.observe(
                "exec.batch.group_size", len(chunk), telemetry.GROUP_SIZE_HIST_EDGES
            )
            traces = execute_jobs_batched(chunk_jobs, factory=factory)
            for index, trace in zip(chunk, traces):
                results[index] = trace
            if cache is not None:
                # One bulk write per lock-step group: the store packs the
                # whole chunk into a single group entry.
                cache.put_many(chunk_jobs, traces)
    _execute_serial(jobs, ungroupable, results, factory, cache, fallback="serial")
