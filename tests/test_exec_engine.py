"""Tests for repro.exec.engine (parallel fan-out + determinism guarantee)."""

import concurrent.futures

import pytest

from repro.exec import (
    SessionJob,
    TraceCache,
    choose_backend,
    resolve_workers,
    run_sessions,
)
from repro.exec.engine import _result_or_retry
from repro.machine import SYS1


def batch_jobs(n_runs=2, duration_s=1.0, workloads=("volrend", "water_nsquared")):
    return [
        SessionJob(
            spec=SYS1,
            workload=workload,
            defense="baseline",
            seed=11,
            run_id=("engine-test", workload, run),
            duration_s=duration_s,
        )
        for workload in workloads
        for run in range(n_runs)
    ]


class TestChooseBackend:
    def test_single_job_is_serial(self):
        assert choose_backend(batch_jobs(n_runs=1, workloads=("volrend",)), workers=8) == "serial"
        assert choose_backend([], workers=8) == "serial"

    def test_batchable_majority_is_batch(self):
        assert choose_backend(batch_jobs(n_runs=2), workers=1) == "batch"

    def test_unbatchable_jobs_on_one_core(self, monkeypatch):
        # Completion-mode jobs cannot batch; with no parallelism available
        # the only non-losing choice is serial.
        import repro.exec.engine as engine_mod

        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 1)
        jobs = batch_jobs(n_runs=2, duration_s=None)
        assert choose_backend(jobs, workers=4) == "serial"

    def test_unbatchable_jobs_on_many_cores(self, monkeypatch):
        import repro.exec.engine as engine_mod

        monkeypatch.setattr(engine_mod.os, "cpu_count", lambda: 8)
        jobs = batch_jobs(n_runs=2, duration_s=None)
        assert choose_backend(jobs, workers=4) == "process"
        # ... but never with a single worker.
        assert choose_backend(jobs, workers=1) == "serial"


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5
        assert resolve_workers(0) == 5  # 0 = unset, defer to env

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        """The tentpole guarantee: worker scheduling never changes results."""
        jobs = batch_jobs()
        serial = run_sessions(jobs, workers=1, cache=False)
        parallel = run_sessions(jobs, workers=4, cache=False)
        assert len(parallel) == len(serial) == len(jobs)
        for a, b in zip(serial, parallel):
            assert a.equals(b)

    def test_results_are_in_job_order(self):
        jobs = batch_jobs(n_runs=1, workloads=("water_nsquared", "volrend"))
        traces = run_sessions(jobs, workers=2, cache=False)
        assert [t.workload for t in traces] == ["water_nsquared", "volrend"]

    def test_serial_repeat_is_bit_identical(self):
        jobs = batch_jobs(n_runs=1)
        first = run_sessions(jobs, workers=1, cache=False)
        second = run_sessions(jobs, workers=1, cache=False)
        for a, b in zip(first, second):
            assert a.equals(b)


class TestCacheIntegration:
    def test_partial_cache_preserves_job_order(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = batch_jobs(n_runs=1)
        # Prime only the second job: the engine must interleave the cached
        # and freshly-simulated traces back into submission order.
        cache.put(jobs[1], jobs[1].execute())
        traces = run_sessions(jobs, workers=1, cache=cache)
        assert [t.workload for t in traces] == ["volrend", "water_nsquared"]
        assert cache.hits == 1

    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = batch_jobs(n_runs=1)
        first = run_sessions(jobs, workers=1, cache=cache)
        assert cache.hits == 0
        second = run_sessions(jobs, workers=1, cache=cache)
        assert cache.hits == len(jobs)
        for a, b in zip(first, second):
            assert a.equals(b)

    def test_cache_false_disables_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        jobs = batch_jobs(n_runs=1, workloads=("volrend",))
        run_sessions(jobs, workers=1, cache=False)
        assert not (tmp_path / "default").exists()
        run_sessions(jobs, workers=1)  # cache=None -> env-gated default
        assert list((tmp_path / "default").rglob("*.npz"))


class _StubFuture:
    def __init__(self, exc):
        self.exc = exc
        self.cancelled = False

    def result(self, timeout=None):
        raise self.exc

    def cancel(self):
        self.cancelled = True


class TestRetry:
    def test_infrastructure_failure_is_redone_in_process(self):
        job = batch_jobs(n_runs=1, workloads=("volrend",), duration_s=0.5)[0]
        future = _StubFuture(concurrent.futures.BrokenExecutor("worker died"))
        trace = _result_or_retry(future, job, None, timeout_s=1.0)
        assert future.cancelled
        assert trace.equals(job.execute())

    def test_timeout_is_redone_in_process(self):
        job = batch_jobs(n_runs=1, workloads=("volrend",), duration_s=0.5)[0]
        future = _StubFuture(concurrent.futures.TimeoutError())
        trace = _result_or_retry(future, job, None, timeout_s=0.01)
        assert trace.workload == "volrend"

    def test_deterministic_job_error_propagates(self):
        job = batch_jobs(n_runs=1, workloads=("volrend",))[0]
        future = _StubFuture(KeyError("unknown workload"))
        with pytest.raises(KeyError):
            _result_or_retry(future, job, None, timeout_s=1.0)
