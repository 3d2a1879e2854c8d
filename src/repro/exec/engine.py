"""Deterministic parallel fan-out over :class:`SessionJob` specs.

:func:`run_sessions` is the one choke point every experiment and the
attack pipeline route their simulation batches through.  It

* resolves the execution backend (explicit argument > ``REPRO_BACKEND``
  env > ``"auto"``) — adaptive selection (``"auto"``,
  :func:`choose_backend`), a plain in-process loop (``"serial"``), a
  process pool (``"process"``), or the vectorized lock-step backend
  (``"batch"``, :mod:`repro.exec.batch`);
* resolves the worker count (explicit argument > ``REPRO_WORKERS`` env >
  serial), falling back to a plain in-process loop at ``workers=1``;
* consults the content-addressed trace cache before simulating anything;
* fans cache misses out over a :class:`~concurrent.futures.ProcessPoolExecutor`
  and collates results **strictly in job order** — never in completion
  order — so the output is independent of worker scheduling;
* under the batch backend, groups compatible fixed-duration jobs by
  :func:`~repro.exec.batch.batch_key` and advances each group lock-step,
  falling back to the serial runner for jobs that cannot batch
  (completion-mode or temperature-recording sessions);
* applies a per-job timeout and retries a crashed or wedged worker's job
  exactly once, in-process (the spawn-keyed RNG makes the redo
  bit-identical).

Determinism guarantee (tested): ``run_sessions(jobs, workers=n)`` and
``run_sessions(jobs, backend=b)`` return traces bit-identical to the
serial path for every ``n`` and every backend ``b``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from .. import telemetry
from ..telemetry import profile
from ..defenses.designs import DefenseFactory
from ..machine import Trace
from .batch import batch_key, execute_jobs_batched, resolve_batch_size
from .cache import TraceCache, default_cache
from .jobs import SessionJob, execute_job, register_factory

__all__ = [
    "BACKENDS",
    "choose_backend",
    "resolve_backend",
    "resolve_workers",
    "run_sessions",
]

#: Default per-job timeout (overridable via ``REPRO_JOB_TIMEOUT_S``).
DEFAULT_JOB_TIMEOUT_S = 600.0

#: Execution backends :func:`run_sessions` can route jobs through.
#: ``"auto"`` resolves to one of the concrete three per run (see
#: :func:`choose_backend`).
BACKENDS = ("auto", "serial", "process", "batch")


def resolve_backend(backend: object = None) -> str:
    """Backend name: explicit argument > ``REPRO_BACKEND`` env > ``"auto"``.

    An explicit ``backend`` of ``None`` or ``""`` means "unset" and defers
    to the environment.  Note ``"process"`` still runs in-process when the
    resolved worker count is 1 — the backend only selects the fan-out
    strategy for the jobs the cache could not answer.
    """
    if backend is None or backend == "":
        backend = os.environ.get("REPRO_BACKEND", "").strip() or "auto"
    backend = str(backend)
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS}")
    return backend


def choose_backend(jobs, workers: object = None) -> str:
    """The concrete backend ``"auto"`` picks for ``jobs`` on this host.

    The heuristic is deliberately conservative — it must never pick a
    backend slower than serial on the host it runs on:

    * one (or zero) jobs: ``"serial"`` — nothing to amortize;
    * a majority of jobs groupable by :func:`batch_key`: ``"batch"`` —
      lock-step vectorization wins even on one core (measured ≥2x on the
      smoke bench) and batches of ≥2 amortize its setup;
    * otherwise ``"process"``, but only when both the resolved worker
      count and ``os.cpu_count()`` exceed 1 — a process pool on a
      single-core host loses outright to the serial loop;
    * else ``"serial"``.
    """
    jobs = list(jobs)
    workers = resolve_workers(workers)
    if len(jobs) <= 1:
        return "serial"
    batchable = sum(1 for job in jobs if batch_key(job) is not None)
    if 2 * batchable >= len(jobs):
        return "batch"
    if workers > 1 and (os.cpu_count() or 1) > 1 and len(jobs) >= 4:
        return "process"
    return "serial"


def resolve_workers(workers: object = None) -> int:
    """Worker count: explicit argument > ``REPRO_WORKERS`` env > 1 (serial).

    An explicit ``workers`` of ``None`` or ``0`` means "unset" (an
    :class:`ExperimentScale` leaves it 0 by default) and defers to the
    environment.
    """
    if workers is not None and int(workers) > 0:
        return int(workers)
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
        if value > 0:
            return value
    return 1


def _mp_context():
    """Start-method context: ``REPRO_MP_CONTEXT`` env, else fork when available.

    Fork is preferred because workers inherit the parent's already-built
    Maya designs (see :func:`repro.exec.jobs.register_factory`) instead of
    re-running system identification per pool.
    """
    name = os.environ.get("REPRO_MP_CONTEXT", "").strip()
    if not name:
        name = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(name)


def _job_timeout_s(timeout_s: object) -> float:
    if timeout_s is not None:
        return float(timeout_s)
    env = os.environ.get("REPRO_JOB_TIMEOUT_S", "").strip()
    return float(env) if env else DEFAULT_JOB_TIMEOUT_S


def _span_key(job: SessionJob):
    """A job's content address as a span key — only computed when profiling.

    ``SessionJob.key()`` hashes the job description; the guard keeps the
    NullProfiler path at one attribute check per span site.
    """
    return job.key() if profile.enabled() else None


def _chunk_span_key(chunk_jobs):
    """Deterministic 16-hex digest over a chunk's job content addresses."""
    if not profile.enabled():
        return None
    joined = "\x1f".join(job.key() for job in chunk_jobs)
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def run_sessions(
    jobs,
    workers: object = None,
    cache: object = None,
    factory: DefenseFactory | None = None,
    timeout_s: object = None,
    backend: object = None,
    batch_size: object = None,
) -> list:
    """Execute ``jobs`` and return their traces **in job order**.

    * ``workers`` — see :func:`resolve_workers`.
    * ``cache`` — a :class:`TraceCache`, ``None`` (use the env-gated
      default: ``REPRO_CACHE=1`` enables it), or ``False`` to disable
      caching regardless of the environment.
    * ``factory`` — optional in-process :class:`DefenseFactory` matching
      the jobs' declarative description; purely an optimization (avoids
      rebuilding Maya designs in this process and, under fork, in the
      workers).
    * ``timeout_s`` — per-job timeout (default ``REPRO_JOB_TIMEOUT_S`` or
      600 s); a timed-out or crashed job is retried once in-process.
    * ``backend`` — see :func:`resolve_backend`.  Every backend returns
      bit-identical traces; only the fan-out strategy differs.
    * ``batch_size`` — sessions per lock-step batch under the batch
      backend (:func:`~repro.exec.batch.resolve_batch_size`).
    """
    jobs = list(jobs)
    backend = resolve_backend(backend)
    workers = resolve_workers(workers)
    if backend == "auto":
        backend = choose_backend(jobs, workers)
        telemetry.ops("run.auto_backend", backend=backend)
    if cache is None:
        cache = default_cache()
    elif cache is False:
        cache = None

    telemetry.ops(
        "run.begin",
        jobs=len(jobs),
        backend=backend,
        workers=workers,
        cached=cache is not None,
    )
    with profile.span("run", key=_chunk_span_key(jobs), jobs=len(jobs), backend=backend):
        # One bulk lookup for the whole run: a single journal refresh (and
        # a single LRU-touch append) covers every job, and packed group
        # entries are opened once per group rather than once per session.
        if cache is not None:
            with profile.span("cache.lookup", jobs=len(jobs)):
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
                _execute_batched(jobs, pending, results, factory, cache, batch_size)
            elif backend == "serial" or workers <= 1 or len(pending) == 1:
                for index in pending:
                    telemetry.ops("job.begin", index=index)
                    with profile.span("job", key=_span_key(jobs[index]), index=index):
                        results[index] = jobs[index].execute(factory=factory)
                        if cache is not None:
                            with profile.span("cache.put"):
                                cache.put(jobs[index], results[index])
                    telemetry.ops("job.end", index=index)
            else:
                _execute_parallel(
                    jobs, pending, results, workers, factory, cache,
                    _job_timeout_s(timeout_s),
                )
        telemetry.ops(
            "run.end",
            jobs=len(jobs),
            executed=len(pending),
            hits=len(jobs) - len(pending),
        )
        telemetry.write_metrics()
    return results


def _execute_parallel(jobs, pending, results, workers, factory, cache, timeout_s):
    if factory is not None:
        # Pre-fork memoization: under the fork start method the workers
        # inherit the parent's built designs instead of re-running sysid.
        register_factory(factory)
    executor = ProcessPoolExecutor(
        max_workers=min(workers, len(pending)), mp_context=_mp_context()
    )
    try:
        futures = []
        for index in pending:
            telemetry.ops("job.submit", index=index)
            futures.append((index, executor.submit(execute_job, jobs[index])))
        # Collate strictly in submission (= job) order, never in completion
        # order: the output must not depend on worker scheduling (MAYA030).
        for index, future in futures:
            with profile.span("job.await", key=_span_key(jobs[index]), index=index):
                results[index] = _result_or_retry(
                    future, jobs[index], factory, timeout_s
                )
                if cache is not None:
                    with profile.span("cache.put"):
                        cache.put(jobs[index], results[index])
            telemetry.ops("job.done", index=index)
    finally:
        # Wait for worker teardown: on the happy path every future is done
        # and the join is instant; on an error path cancel_futures stops
        # queued jobs and the join prevents orphaned children racing
        # interpreter shutdown.
        executor.shutdown(wait=True, cancel_futures=True)


def _execute_batched(jobs, pending, results, factory, cache, batch_size):
    """Advance compatible pending jobs lock-step; serial-fallback the rest.

    Jobs are grouped by :func:`batch_key` through an insertion-ordered
    dict, so grouping — like everything else in this layer — is a pure
    function of job order (MAYA030).  Each group is chunked to the batch
    size and simulated by :func:`execute_jobs_batched`; ungroupable jobs
    (completion-mode, temperature-recording) run through the ordinary
    serial runner.  Results land at their job's index either way.
    """
    batch_size = resolve_batch_size(batch_size)
    groups: dict = {}
    ungroupable: list = []
    for index in pending:
        key = batch_key(jobs[index])
        if key is None:
            ungroupable.append(index)
        else:
            groups.setdefault(key, []).append(index)
    for indices in groups.values():
        group_jobs = [jobs[index] for index in indices]
        with profile.span("group", key=_chunk_span_key(group_jobs), sessions=len(indices)):
            for start in range(0, len(indices), batch_size):
                chunk = indices[start:start + batch_size]
                chunk_jobs = [jobs[index] for index in chunk]
                telemetry.ops("batch.group", size=len(chunk), indices=list(chunk))
                telemetry.observe(
                    "exec.batch.group_size", len(chunk), telemetry.GROUP_SIZE_HIST_EDGES
                )
                with profile.span(
                    "chunk", key=_chunk_span_key(chunk_jobs), sessions=len(chunk)
                ):
                    traces = execute_jobs_batched(chunk_jobs, factory=factory)
                    for index, trace in zip(chunk, traces):
                        results[index] = trace
                    if cache is not None:
                        # One bulk write per lock-step group: the store
                        # packs the whole chunk into a single group entry.
                        with profile.span("cache.put"):
                            cache.put_many(chunk_jobs, traces)
    for index in ungroupable:
        telemetry.ops("job.begin", index=index, fallback="serial")
        with profile.span("job", key=_span_key(jobs[index]), index=index):
            results[index] = jobs[index].execute(factory=factory)
            if cache is not None:
                with profile.span("cache.put"):
                    cache.put(jobs[index], results[index])
        telemetry.ops("job.end", index=index)


def _result_or_retry(future, job: SessionJob, factory, timeout_s: float) -> Trace:
    """Await one worker result; on crash or timeout, redo the job in-process.

    Only infrastructure failures are retried — a deterministic exception
    raised by the job itself (bad workload name, invalid config) would
    fail identically on retry and propagates immediately.
    """
    try:
        return future.result(timeout=timeout_s)
    except (BrokenExecutor, FutureTimeoutError, OSError) as failure:
        future.cancel()
        telemetry.ops("job.retry", reason=type(failure).__name__)
        telemetry.count("exec.jobs.retried")
        with profile.span(
            "job.retry", key=_span_key(job), reason=type(failure).__name__
        ):
            return job.execute(factory=factory)
