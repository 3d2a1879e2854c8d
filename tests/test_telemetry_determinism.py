"""Telemetry stays out-of-band: recording leaves traces untouched.

The per-interval record of a session is its :class:`~repro.machine.Trace`
(measured power, mask target, actuator settings), and ``Trace.equals`` is
the byte-identity oracle across serial, lock-step and trace-store runs.
Telemetry recording adds only the engine's ``ops.jsonl`` stream and the
``metrics.json`` snapshot: whichever way the same :class:`SessionJob` is
executed, a recorded run returns the traces an unrecorded run returns and
leaves no other file behind, in the telemetry directory or in the store.
"""

from repro import telemetry
from repro.exec import SessionJob, TraceCache, run_sessions
from repro.telemetry import TelemetryRecorder

DURATION_S = 1.0


def _jobs(sys1_factory, seeds=(11, 12)):
    return [
        SessionJob.for_factory(
            sys1_factory,
            workload="volrend",
            defense="maya_gs",
            seed=seed,
            run_id=0,
            duration_s=DURATION_S,
        )
        for seed in seeds
    ]


def _run_recorded(root, jobs, factory, **kwargs):
    telemetry.set_recorder(TelemetryRecorder(root=root))
    try:
        return run_sessions(jobs, factory=factory, **kwargs)
    finally:
        telemetry.set_recorder(None)


def test_recorded_runs_write_only_ops_and_metrics(sys1_factory, tmp_path):
    jobs = _jobs(sys1_factory)
    reference = run_sessions(jobs, factory=sys1_factory, backend="serial", cache=False)
    store = TraceCache(root=tmp_path / "store")
    runs = {
        "serial": dict(backend="serial", cache=False),
        "lockstep": dict(backend="batch", cache=store),
        "warm-store": dict(backend="batch", cache=store),
    }
    for label, kwargs in runs.items():
        root = tmp_path / label
        traces = _run_recorded(root, jobs, sys1_factory, **kwargs)
        assert all(got.equals(want) for got, want in zip(traces, reference)), label
        assert sorted(path.name for path in root.iterdir()) == [
            "metrics.json",
            "ops.jsonl",
        ], label

    # The last run was served from the store the lock-step run filled.
    assert store.hits == len(jobs)
    assert "job.cached" in (tmp_path / "warm-store" / "ops.jsonl").read_text()
    store_files = [path for path in store.root.rglob("*") if path.is_file()]
    assert [path.name for path in store_files if path.suffix != ".npz"] == [
        "journal.jsonl"
    ]


def test_null_recorder_leaves_no_files(sys1_factory, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.chdir(tmp_path)
    telemetry.set_recorder(None)
    run_sessions(
        _jobs(sys1_factory, seeds=(11,)),
        factory=sys1_factory, backend="serial", cache=False,
    )
    assert not (tmp_path / telemetry.DEFAULT_TELEMETRY_DIR).exists()
    assert list(tmp_path.iterdir()) == []
