"""Tests for repro.exec.batch: the lock-step batched execution backend.

The contract under test is absolute: every trace the batched backend
produces must be bit-identical (``Trace.equals``) to the serial runner's,
for every platform, any mix of workloads/defenses/seeds within a batch,
and any batch size — and traces it feeds the cache must replay into the
identical attack outcome.
"""

import numpy as np
import pytest

from repro.attacks.mlp import MLPConfig
from repro.attacks.pipeline import AttackScenario, run_attack
from repro.exec import (
    BatchedMachine,
    SessionJob,
    TraceCache,
    batch_key,
    execute_jobs_batched,
    resolve_backend,
    run_sessions,
)
from repro.exec import engine
from repro.machine import SYS1, SYS2, SYS3


def make_job(
    workload="volrend",
    defense="baseline",
    spec=SYS1,
    seed=11,
    run=0,
    duration_s=1.0,
    **kwargs,
):
    return SessionJob(
        spec=spec,
        workload=workload,
        defense=defense,
        seed=seed,
        run_id=("batch-test", workload, defense, run),
        duration_s=duration_s,
        **kwargs,
    )


class TestResolveBackend:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        assert resolve_backend("serial") == "serial"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        assert resolve_backend() == "batch"
        assert resolve_backend("") == "batch"  # "" = unset, defer to env

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend() == "auto"

    def test_unknown_backend_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("threads")
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend()


class TestBatchKey:
    def test_compatible_jobs_share_a_key(self):
        a = make_job(workload="volrend", defense="baseline")
        b = make_job(workload="water_nsquared", defense="random_inputs", seed=3)
        assert batch_key(a) == batch_key(b) is not None

    def test_completion_jobs_share_a_key_across_caps_and_tails(self):
        """Cap and tail are per-row end conditions, not grouping keys."""
        a = make_job(duration_s=None, max_duration_s=30.0, tail_s=0.2)
        b = make_job(
            workload="water_nsquared", defense="random_inputs", seed=3,
            duration_s=None, max_duration_s=90.0, tail_s=6.0,
        )
        assert batch_key(a) == batch_key(b) is not None
        assert batch_key(make_job(duration_s=None, spec=SYS1)) != batch_key(
            make_job(duration_s=None, spec=SYS2)
        )

    def test_completion_jobs_never_share_a_key_with_fixed_duration(self):
        completion_keys = {
            batch_key(make_job(duration_s=None, max_duration_s=cap, tail_s=tail))
            for cap in (1.0, 16.0, 600.0)
            for tail in (0.0, 2.0)
        }
        fixed_keys = {
            batch_key(make_job(duration_s=duration, max_duration_s=cap, tail_s=tail))
            for duration in (1.0, 16.0, 600.0)
            for cap in (1.0, 16.0, 600.0)
            for tail in (0.0, 2.0)
        }
        assert None not in completion_keys | fixed_keys
        assert not completion_keys & fixed_keys

    def test_temperature_recording_is_ungroupable(self):
        assert batch_key(make_job(record_temperature=True)) is None

    def test_different_grids_get_different_keys(self):
        assert batch_key(make_job(duration_s=1.0)) != batch_key(make_job(duration_s=2.0))
        assert batch_key(make_job(spec=SYS1)) != batch_key(make_job(spec=SYS2))


class TestBitIdentity:
    @pytest.mark.parametrize("spec", [SYS1, SYS2, SYS3], ids=["sys1", "sys2", "sys3"])
    def test_batch_matches_serial_per_platform(self, spec):
        jobs = [
            make_job(workload=workload, spec=spec, seed=5, run=run)
            for run, workload in enumerate(("volrend", "water_nsquared", "volrend"))
        ]
        batched = execute_jobs_batched(jobs)
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute())

    def test_heterogeneous_batch_matches_serial(self, sys1_factory):
        """Mixed workloads, defenses (incl. maya_gs) and seeds in one batch."""
        jobs = [
            SessionJob.for_factory(
                sys1_factory,
                workload=workload,
                defense=defense,
                seed=seed,
                run_id=("batch-hetero", defense, seed),
                duration_s=1.0,
            )
            for workload, defense, seed in (
                ("volrend", "baseline", 1),
                ("water_nsquared", "noisy_baseline", 2),
                ("volrend", "random_inputs", 3),
                ("water_nsquared", "maya_gs", 4),
                ("volrend", "maya_gs", 5),
            )
        ]
        batched = execute_jobs_batched(jobs, factory=sys1_factory)
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute(factory=sys1_factory))

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_batch_size_never_changes_results(self, batch_size, monkeypatch):
        monkeypatch.setattr(engine, "BATCH_SIZE", batch_size)
        jobs = [
            make_job(workload=workload, seed=9, run=run)
            for run in range(3)
            for workload in ("volrend", "water_nsquared")
        ]
        serial = run_sessions(jobs, cache=False, backend="serial")
        batched = run_sessions(jobs, cache=False, backend="batch")
        for a, b in zip(serial, batched):
            assert a.equals(b)

    @pytest.mark.parametrize("spec", [SYS1, SYS2, SYS3], ids=["sys1", "sys2", "sys3"])
    def test_completion_rows_leave_at_their_own_deadline(self, spec):
        """Rows finish at different intervals, one with no tail; one is capped."""
        jobs = [
            make_job(
                workload="loop_imul", workload_kwargs={"duration_s": work_s},
                defense=defense, spec=spec, seed=5, run=run,
                duration_s=None, max_duration_s=4.0, tail_s=tail_s,
            )
            for run, (work_s, defense, tail_s) in enumerate((
                (0.3, "baseline", 0.2),
                (0.9, "noisy_baseline", 0.0),
                (0.6, "random_inputs", 0.5),
            ))
        ]
        jobs.append(make_job(spec=spec, seed=5, run=3, duration_s=None, max_duration_s=0.5))
        batched = execute_jobs_batched(jobs)
        assert len({trace.measured_w.size for trace in batched}) == len(jobs)
        assert all(trace.completed for trace in batched[:-1])
        assert not batched[-1].completed  # capped: completed_at_s is NaN
        assert batched[1].duration_s == pytest.approx(
            batched[1].completed_at_s, abs=batched[1].interval_s
        )
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute())

    def test_completion_group_of_one_matches_serial(self, sys1_factory):
        job = SessionJob.for_factory(
            sys1_factory, workload="loop_xor", workload_kwargs={"duration_s": 0.5},
            defense="maya_gs", seed=7, run_id="batch-one",
            duration_s=None, max_duration_s=5.0, tail_s=0.2,
        )
        [trace] = execute_jobs_batched([job], factory=sys1_factory)
        assert trace.completed
        assert trace.equals(job.execute(factory=sys1_factory))

    def test_completion_rows_mixed_with_maya_gs_match_serial(self, sys1_factory):
        """Maya rows leave a shared controller fleet while others stay in it."""
        jobs = [
            SessionJob.for_factory(
                sys1_factory, workload="loop_mov", workload_kwargs={"duration_s": work_s},
                defense=defense, seed=seed, run_id=("batch-maya-completion", seed),
                duration_s=None, max_duration_s=cap_s, tail_s=tail_s,
            )
            for work_s, defense, seed, cap_s, tail_s in (
                (0.4, "maya_gs", 1, 5.0, 0.2),
                (0.8, "baseline", 2, 5.0, 0.0),
                (0.6, "maya_gs", 3, 5.0, 0.4),
                (0.5, "maya_constant", 4, 5.0, 0.2),
                (3.0, "maya_gs", 5, 0.6, 0.2),
                (1.0, "maya_gs", 6, 5.0, 0.0),
            )
        ]
        batched = execute_jobs_batched(jobs, factory=sys1_factory)
        assert len({trace.measured_w.size for trace in batched}) > 1
        assert not batched[4].completed
        for job, trace in zip(jobs, batched):
            assert trace.equals(job.execute(factory=sys1_factory))

    def test_target_and_settings_logs_match(self, sys1_factory):
        """The per-interval logs (mask targets, actuations) are replayed too."""
        job = SessionJob.for_factory(
            sys1_factory,
            workload="volrend",
            defense="maya_gs",
            seed=21,
            run_id="batch-logs",
            duration_s=1.0,
        )
        [batched] = execute_jobs_batched([job], factory=sys1_factory)
        serial = job.execute(factory=sys1_factory)
        assert np.array_equal(batched.target_w, serial.target_w, equal_nan=True)
        assert np.array_equal(batched.settings, serial.settings)
        # No target exists before the first decide; every later interval has one.
        assert np.isfinite(batched.target_w[1:]).all()


class TestBatchedMachineValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchedMachine([])

    def test_mixed_spec_rejected(self):
        machines = [make_job(spec=SYS1).build_machine(), make_job(spec=SYS2).build_machine()]
        with pytest.raises(ValueError, match="share spec and tick"):
            BatchedMachine(machines)

    def test_mixed_batch_key_rejected(self):
        with pytest.raises(ValueError, match="batch_key"):
            execute_jobs_batched([make_job(duration_s=1.0), make_job(duration_s=2.0)])

    def test_empty_job_list_is_empty_result(self):
        assert execute_jobs_batched([]) == []

    def test_cap_shorter_than_one_interval_rejected(self):
        jobs = [make_job(run=run, max_duration_s=0.005) for run in range(2)]
        with pytest.raises(ValueError, match="max_duration_s shorter than one interval"):
            execute_jobs_batched(jobs)


class TestEngineIntegration:
    def test_mixed_groups_and_fallback_keep_job_order(self):
        """Ungroupable jobs fall back to serial, results stay in job order."""
        jobs = [
            make_job(workload="volrend", duration_s=1.0),
            make_job(workload="water_nsquared", duration_s=None, max_duration_s=1.0),
            make_job(workload="water_nsquared", duration_s=2.0),
            make_job(workload="volrend", duration_s=0.5, record_temperature=True),
            make_job(workload="volrend", duration_s=1.0, run=1),
        ]
        serial = run_sessions(jobs, cache=False, backend="serial")
        batched = run_sessions(jobs, cache=False, backend="batch")
        assert [t.workload for t in batched] == [j.workload for j in jobs]
        for a, b in zip(serial, batched):
            assert a.equals(b)

    def test_env_routes_to_batch_backend(self, monkeypatch):
        jobs = [make_job(run=run) for run in range(2)]
        serial = run_sessions(jobs, cache=False, backend="serial")
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        batched = run_sessions(jobs, cache=False)
        for a, b in zip(serial, batched):
            assert a.equals(b)

    def test_batch_results_populate_the_cache(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        jobs = [make_job(run=run) for run in range(3)]
        first = run_sessions(jobs, cache=cache, backend="batch")
        assert cache.misses == len(jobs)
        second = run_sessions(jobs, cache=cache, backend="serial")
        assert cache.hits == len(jobs)
        for a, b in zip(first, second):
            assert a.equals(b)


class TestAttackPipelineReplay:
    def test_batch_collected_traces_replay_into_identical_outcome(self, tmp_path):
        """Cache traces with backend="batch", re-run the attack serially from
        the cache: segments, training and the confusion matrix must be
        byte-for-byte what an all-serial pipeline produces."""
        scenario = AttackScenario(
            name="batch-replay",
            spec=SYS1,
            class_workloads=("volrend", "water_nsquared"),
            defense="baseline",
            runs_per_class=4,
            duration_s=2.0,
            segment_duration_s=1.0,
            segment_stride_s=0.5,
            mlp=MLPConfig(hidden_sizes=(16,), max_epochs=5),
            seed=3,
        )
        from repro.defenses.designs import DefenseFactory

        factory = DefenseFactory(SYS1, seed=scenario.seed)
        baseline = run_attack(scenario, factory, cache=False, backend="serial")

        cache = TraceCache(root=tmp_path)
        batched = run_attack(scenario, factory, cache=cache, backend="batch")
        replayed = run_attack(scenario, factory, cache=cache, backend="serial")
        assert cache.hits == 2 * scenario.runs_per_class

        for outcome in (batched, replayed):
            assert outcome.average_accuracy == baseline.average_accuracy
            assert np.array_equal(outcome.result.matrix, baseline.result.matrix)
            assert (outcome.n_train, outcome.n_val, outcome.n_test) == (
                baseline.n_train,
                baseline.n_val,
                baseline.n_test,
            )
