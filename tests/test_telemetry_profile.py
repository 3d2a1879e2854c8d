"""Tests for repro.telemetry.profile (span profiler) and its engine wiring."""

import json

import pytest

from repro import telemetry
from repro.exec import SessionJob, run_sessions
from repro.machine import SYS1
from repro.telemetry import TelemetryRecorder, profile
from repro.telemetry.aggregate import span_tree
from repro.telemetry.profile import (
    PROFILE_FILE,
    PROFILE_SCHEMA,
    NullProfiler,
    SpanProfiler,
)


@pytest.fixture(autouse=True)
def _ambient_profiler_reset(monkeypatch):
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.delenv("REPRO_PROFILE_DIR", raising=False)
    profile.set_profiler(None)
    yield
    profile.set_profiler(None)


def profile_jobs(n_runs=1, duration_s=2.0, workloads=("volrend", "water_nsquared")):
    return [
        SessionJob(
            spec=SYS1,
            workload=workload,
            defense="baseline",
            seed=11,
            run_id=("profile-test", workload, run),
            duration_s=duration_s,
        )
        for workload in workloads
        for run in range(n_runs)
    ]


def read_spans(root):
    lines = (root / PROFILE_FILE).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "manifest"
    assert records[0]["schema"] == PROFILE_SCHEMA
    return [r for r in records if r["type"] == "span"]


class TestAmbientProfiler:
    def test_default_is_null_profiler(self, tmp_path):
        assert isinstance(profile.get_profiler(), NullProfiler)
        assert profile.enabled() is False
        with profile.span("anything", key="k", extra=1):
            pass
        assert not list(tmp_path.iterdir())

    def test_env_var_enables_profiling(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "p"))
        profile.set_profiler(None)
        profiler = profile.get_profiler()
        assert isinstance(profiler, SpanProfiler)
        assert profiler.root == tmp_path / "p"
        assert profile.enabled() is True

    def test_set_profiler_injects_and_none_rederives(self, tmp_path):
        injected = SpanProfiler(root=tmp_path)
        profile.set_profiler(injected)
        assert profile.get_profiler() is injected
        profile.set_profiler(None)
        assert isinstance(profile.get_profiler(), NullProfiler)


class TestSpanRecords:
    def test_flush_only_when_stack_unwinds(self, tmp_path):
        profiler = SpanProfiler(root=tmp_path)
        with profiler.span("root", key="r"):
            with profiler.span("inner"):
                pass
            # Inner span closed, but the stack is non-empty: nothing on disk.
            assert not (tmp_path / PROFILE_FILE).exists()
        spans = read_spans(tmp_path)
        assert [s["name"] for s in spans] == ["inner", "root"]
        inner, root = spans
        assert inner["parent"] == root["id"]
        assert root["parent"] == ""
        assert root["key"] == "r"
        assert root["depth"] == 0 and inner["depth"] == 1
        assert root["dur_s"] >= inner["dur_s"] >= 0.0

    def test_span_ids_are_deterministic(self, tmp_path):
        def record(root):
            profiler = SpanProfiler(root=root)
            with profiler.span("run", key="batch-1"):
                for index in range(2):
                    with profiler.span("job", key=f"job-{index}"):
                        pass
                with profiler.span("job", key="job-0"):  # repeat → new occurrence
                    pass
            return read_spans(root)

        first = record(tmp_path / "a")
        second = record(tmp_path / "b")
        assert [s["id"] for s in first] == [s["id"] for s in second]
        assert [s["parent"] for s in first] == [s["parent"] for s in second]
        # The repeated (parent, name, key) slot gets a fresh id.
        job_ids = [s["id"] for s in first if s["name"] == "job"]
        assert len(set(job_ids)) == 3

    def test_exception_unwinds_open_descendants(self, tmp_path):
        profiler = SpanProfiler(root=tmp_path)
        with pytest.raises(RuntimeError):
            with profiler.span("outer"):
                inner = profiler.span("inner")
                inner.__enter__()
                raise RuntimeError("escape without closing inner")
        assert profiler._stack == []
        spans = read_spans(tmp_path)
        assert [s["name"] for s in spans] == ["outer"]


class TestEngineIntegration:
    def test_engine_emits_span_hierarchy(self, tmp_path):
        profile.set_profiler(SpanProfiler(root=tmp_path))
        jobs = profile_jobs()
        run_sessions(jobs, cache=False, backend="batch")
        profile.set_profiler(None)
        spans = read_spans(tmp_path)
        names = {s["name"] for s in spans}
        assert {"run", "group", "chunk", "fleet.build"} <= names
        assert {"kernel.power", "kernel.measure", "kernel.decide"} <= names
        run_span = next(s for s in spans if s["name"] == "run")
        assert run_span["jobs"] == len(jobs)
        assert run_span["backend"] == "batch"

    def test_run_span_child_coverage(self, tmp_path):
        """The span tree accounts for >=95% of the engine's wall-clock."""
        profile.set_profiler(SpanProfiler(root=tmp_path))
        run_sessions(profile_jobs(duration_s=8.0), cache=False, backend="batch")
        profile.set_profiler(None)
        tree = span_tree([tmp_path / PROFILE_FILE])
        run_node = next(n for n in tree["roots"] if n["name"] == "run")
        assert run_node["coverage"] >= 0.95

    def test_profiler_never_perturbs_results(self, tmp_path):
        """Traces and telemetry metric snapshots are byte-identical with
        the profiler on — wall-clock observation stays out-of-band."""
        jobs = profile_jobs()

        def collect(profiled, label):
            root = tmp_path / label
            telemetry.set_recorder(TelemetryRecorder(root=root / "telemetry"))
            if profiled:
                profile.set_profiler(SpanProfiler(root=root / "prof"))
            try:
                traces = run_sessions(jobs, cache=False, backend="batch")
            finally:
                profile.set_profiler(None)
                telemetry.set_recorder(None)
            return traces, (root / "telemetry" / "metrics.json").read_bytes()

        plain_traces, plain_metrics = collect(False, "plain")
        prof_traces, prof_metrics = collect(True, "profiled")
        assert all(a.equals(b) for a, b in zip(plain_traces, prof_traces))
        assert plain_metrics == prof_metrics
        assert (tmp_path / "profiled" / "prof" / PROFILE_FILE).exists()
