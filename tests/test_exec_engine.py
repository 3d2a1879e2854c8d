"""Tests for repro.exec.engine (backend choice, job order, cache integration)."""

from dataclasses import replace

from repro.exec import (
    SessionJob,
    TraceCache,
    choose_backend,
    run_sessions,
)
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
        assert choose_backend(batch_jobs(n_runs=1, workloads=("volrend",))) == "serial"
        assert choose_backend([]) == "serial"

    def test_batchable_majority_is_batch(self):
        assert choose_backend(batch_jobs(n_runs=2)) == "batch"

    def test_unbatchable_majority_is_serial(self):
        # Temperature-recording jobs cannot batch, and the serial loop is
        # the only other backend.
        jobs = [replace(job, record_temperature=True) for job in batch_jobs(n_runs=2)]
        assert choose_backend(jobs) == "serial"
        assert choose_backend(jobs + batch_jobs(n_runs=1)) == "serial"


class TestDeterminism:
    def test_results_are_in_job_order(self):
        jobs = batch_jobs(n_runs=1, workloads=("water_nsquared", "volrend"))
        traces = run_sessions(jobs, cache=False)
        assert [t.workload for t in traces] == ["water_nsquared", "volrend"]

    def test_serial_repeat_is_bit_identical(self):
        jobs = batch_jobs(n_runs=1)
        first = run_sessions(jobs, cache=False, backend="serial")
        second = run_sessions(jobs, cache=False, backend="serial")
        for a, b in zip(first, second):
            assert a.equals(b)


class TestCacheIntegration:
    def test_partial_cache_preserves_job_order(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = batch_jobs(n_runs=1)
        # Prime only the second job: the engine must interleave the cached
        # and freshly-simulated traces back into submission order.
        cache.put(jobs[1], jobs[1].execute())
        traces = run_sessions(jobs, cache=cache)
        assert [t.workload for t in traces] == ["volrend", "water_nsquared"]
        assert cache.hits == 1

    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = batch_jobs(n_runs=1)
        first = run_sessions(jobs, cache=cache)
        assert cache.hits == 0
        second = run_sessions(jobs, cache=cache)
        assert cache.hits == len(jobs)
        for a, b in zip(first, second):
            assert a.equals(b)

    def test_cache_false_disables_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        jobs = batch_jobs(n_runs=1, workloads=("volrend",))
        run_sessions(jobs, cache=False)
        assert not (tmp_path / "default").exists()
        run_sessions(jobs)  # cache=None -> env-gated default
        assert list((tmp_path / "default").rglob("*.npz"))
