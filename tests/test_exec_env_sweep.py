"""Env sweep: execution-infrastructure env vars never change results.

The purity analysis (MAYA050) proves statically that no sim-reachable
code reads ``REPRO_*`` configuration; this is the dynamic half of that
contract.  The same ``SessionJob`` must produce the same content address
and a bit-identical trace whether it runs serially, in lock-step
batches, or with telemetry recording enabled — the
infrastructure knobs select *how* the work is done, never *what* is
computed.
"""

from repro import telemetry
from repro.exec import SessionJob, run_sessions
from repro.machine import SYS1

#: Every infrastructure variable the sweep perturbs (and must clear).
INFRA_VARS = (
    "REPRO_BACKEND",
    "REPRO_TELEMETRY",
)

#: The sweep matrix: each entry is one infrastructure configuration.
SWEEP = (
    {"REPRO_BACKEND": "serial"},
    {"REPRO_BACKEND": "batch"},
    {"REPRO_TELEMETRY": "1"},
)


def sweep_jobs():
    return [
        SessionJob(
            spec=SYS1,
            workload=workload,
            defense="baseline",
            seed=13,
            run_id=("env-sweep", workload),
            duration_s=0.5,
        )
        for workload in ("volrend", "water_nsquared")
    ]


def run_under(monkeypatch, tmp_path, env):
    for name in INFRA_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry"))
    telemetry.set_recorder(None)  # re-derive from the patched environment
    try:
        jobs = sweep_jobs()
        keys = [job.key() for job in jobs]
        traces = run_sessions(jobs, cache=False)
    finally:
        telemetry.set_recorder(None)
    return keys, traces


def trace_bytes(trace):
    """Every array field as raw bytes — the bit-identity oracle."""
    return (
        trace.power_w.tobytes(),
        trace.measured_w.tobytes(),
        trace.target_w.tobytes(),
        trace.settings.tobytes(),
        trace.temperature_c.tobytes(),
        repr(trace.completed_at_s),
    )


class TestEnvSweep:
    def test_key_and_trace_are_env_invariant(self, monkeypatch, tmp_path):
        baseline_keys, baseline_traces = run_under(monkeypatch, tmp_path, {})
        for env in SWEEP:
            keys, traces = run_under(monkeypatch, tmp_path, env)
            assert keys == baseline_keys, env
            assert len(traces) == len(baseline_traces)
            for got, want in zip(traces, baseline_traces):
                assert got.equals(want), env
                assert trace_bytes(got) == trace_bytes(want), env
