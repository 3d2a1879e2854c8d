"""Harness tests: patching, self-time arithmetic, op accounting, tiny runs.

Run with ``python -m pytest expbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from expbench import layers
from expbench.bench import OpRecord, run_op, run_workload, summarize_ops, tail_percentile
from expbench.environment import THREAD_VARS, sanitize
from expbench.tracer import Target, Tracer, patched, unresolved
from expbench.workloads import REPLAY_SCALE, WORKLOADS, Fig06, Fig14, Workload
from repro.attacks.mlp import MLPClassifier, MLPConfig
from repro.experiments.config import get_scale

ROOT = Path(__file__).resolve().parents[2]


# -- patching ---------------------------------------------------------------

@pytest.fixture
def fake_modules(monkeypatch):
    """``fake_lib.f`` and a ``fake_user`` module that did ``from fake_lib import f``."""
    lib = types.ModuleType("expbench_fake_lib")
    exec(
        "def f(x):\n    return x + 1\n"
        "class Box:\n"
        "    @staticmethod\n    def twice(x):\n        return 2 * x\n"
        "    def plain(self, x):\n        return x - 1\n",
        lib.__dict__,
    )
    user = types.ModuleType("expbench_fake_user")
    user.f = lib.f
    exec("def call(x):\n    return f(x)\n", user.__dict__)
    monkeypatch.setitem(sys.modules, lib.__name__, lib)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    return lib, user


def test_imported_name_is_patched_in_the_importing_module(fake_modules):
    lib, user = fake_modules
    original = lib.f
    tracer = Tracer()
    with tracer.installed([Target("user.f", "expbench_fake_user", "f")]):
        assert user.call(1) == 2
        assert lib.f is original
        assert user.f is not original
    assert user.f is original
    assert tracer.layer("user.f").calls == 1


def test_staticmethod_is_rewrapped_as_staticmethod(fake_modules):
    lib, _ = fake_modules
    raw = vars(lib.Box)["twice"]
    tracer = Tracer()
    with tracer.installed([Target("box.twice", "expbench_fake_lib:Box", "twice"),
                           Target("box.plain", "expbench_fake_lib:Box", "plain")]):
        assert isinstance(vars(lib.Box)["twice"], staticmethod)
        assert lib.Box.twice(3) == 6
        assert lib.Box().twice(4) == 8
        assert lib.Box().plain(4) == 3
    assert vars(lib.Box)["twice"] is raw
    assert tracer.layer("box.twice").calls == 2
    assert tracer.layer("box.plain").calls == 1


def test_originals_are_restored_when_the_block_raises(fake_modules):
    _, user = fake_modules
    original = user.f
    with pytest.raises(RuntimeError):
        with patched([Target("user.f", "expbench_fake_user", "f")], lambda t, fn: fn):
            raise RuntimeError("boom")
    assert user.f is original


def test_missing_targets_are_skipped_not_created(fake_modules):
    lib, _ = fake_modules
    targets = [Target("gone", "expbench_fake_lib", "nope"),
               Target("gone", "expbench_fake_lib:Missing", "x"),
               Target("gone", "expbench_no_such_module", "x")]
    assert unresolved(targets) == targets
    with patched(targets, lambda t, fn: fn):
        assert not hasattr(lib, "nope")


def test_every_layer_target_resolves():
    assert unresolved(layers.DESIGN_TARGETS + layers.OP_TARGETS) == []


# -- self time --------------------------------------------------------------

def test_self_time_on_a_synthetic_call_tree():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    tracer = Tracer(clock=lambda: now[0])
    leaf = tracer.wrapper(Target("leaf", "m", "leaf"), lambda: tick(4))

    def inner_body():
        tick(3)
        leaf()
        leaf()

    inner = tracer.wrapper(Target("inner", "m", "inner"), inner_body)

    def outer_body():
        tick(1)
        inner()
        tick(2)
        leaf()

    outer = tracer.wrapper(Target("outer", "m", "outer"), outer_body)
    outer()
    outer()
    got = {name: (layer.calls, layer.total_s, layer.self_s)
           for name, layer in tracer.layers.items()}
    # One outer call: 1 + inner(3 + 4 + 4) + 2 + leaf 4 = 18.
    assert got == {
        "leaf": (6, 24.0, 24.0),
        "inner": (2, 22.0, 6.0),
        "outer": (2, 36.0, 6.0),
    }
    # Self times add up to the root's total.
    assert sum(layer.self_s for layer in tracer.layers.values()) == 36.0


def test_a_raising_call_still_closes_its_frame():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 2
        raise ValueError

    failing = tracer.wrapper(Target("fail", "m", "fail"), fail)

    def body():
        now[0] += 1
        with pytest.raises(ValueError):
            failing()

    tracer.wrapper(Target("root", "m", "root"), body)()
    assert tracer.layer("root").self_s == 1.0
    assert tracer.layer("fail").self_s == 2.0


# -- op accounting -----------------------------------------------------------

class _FakeExperiment:
    collect_owners = ()

    def __init__(self, raises=False, errors=(), digest="d0"):
        self.raises, self.errors, self._digest = raises, list(errors), digest

    def run(self, factory, seed):
        if self.raises:
            raise RuntimeError("op blew up")
        return object()

    def check(self, result, tap):
        return list(self.errors)

    def digest(self, result):
        return self._digest

    def versus_paper(self, result):
        return {}


def _fake(experiment):
    return Workload("fake", experiment, False, None)


def test_failed_ops_are_counted_against_attempted():
    records = [
        run_op(_fake(_FakeExperiment()), None, 0),
        run_op(_fake(_FakeExperiment(raises=True)), None, 0),
        run_op(_fake(_FakeExperiment(errors=["bad shape"])), None, 0),
        run_op(_fake(_FakeExperiment(digest="d1")), None, 0, reference="d0"),
        run_op(_fake(_FakeExperiment(digest="d0")), None, 0, reference="d0"),
    ]
    assert [record.ok for record in records] == [True, False, False, False, True]
    assert "op blew up" in records[1].errors[0]
    attempted, failed, good = summarize_ops(records)
    assert (attempted, failed, len(good)) == (5, 3, 2)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([3.0, 1.0, 2.0]) == {"percentile": 100, "value": 3.0, "samples": 3}
    assert tail_percentile([float(i) for i in range(40)])["percentile"] == 75


def test_sanitize_clears_knobs_and_pins_threads():
    environ = {"REPRO_PRECISION": "fast", "REPRO_WORKERS": "2", "HOME": "/h"}
    assert sanitize(environ) == ["REPRO_PRECISION", "REPRO_WORKERS"]
    assert environ == {"HOME": "/h", **{name: "1" for name in THREAD_VARS}}


# -- the benchmark contract --------------------------------------------------

def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "sim_s_per_host_s", "peak_rss_mb", "setup_s"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in layers.layer_metric_names()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "expbench", tmp_path / "expbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "expbench/run.py", "--workload", "fig06-smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- tiny-scale runs of each workload ----------------------------------------

TINY = replace(
    get_scale("smoke"), name="tiny", runs_per_class=5, duration_s=3.0,
    segment_duration_s=2.0, segment_stride_s=0.5, n_apps=2, mlp_hidden=(16,),
    mlp_epochs=3, sysid_intervals=100,
)


def _tiny(name):
    workload = WORKLOADS[name]
    experiment = type(workload.experiment)(TINY)
    return replace(workload, experiment=experiment)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    outcome = run_workload(_tiny(name), seed=3, seconds=0.0, trace=False,
                           root=tmp_path, import_s=0.1)
    assert outcome.correct, outcome.report
    assert outcome.failed == 0 and outcome.attempted == 1
    assert set(outcome.metrics) == {"wall_s", "sim_s_per_host_s", "peak_rss_mb", "setup_s"}
    assert all(entry["value"] > 0 for entry in outcome.metrics.values())
    assert outcome.report["oracle_errors"] == []
    assert not (tmp_path / ".expbench-work").exists()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_and_restores(name, tmp_path):
    from repro.control.controller import MatrixController
    from repro.experiments import fig14_overheads

    originals = (vars(MatrixController)["step"], fig14_overheads.run_sessions)
    outcome = run_workload(_tiny(name), seed=3, seconds=0.0, trace=True,
                           root=tmp_path, import_s=0.1)
    assert outcome.correct, outcome.report
    assert outcome.attempted == 2
    assert list(outcome.metrics) == [name for name, _, _ in layers.layer_metric_names()]
    assert (vars(MatrixController)["step"], fig14_overheads.run_sessions) == originals
    metrics = {key: entry["value"] for key, entry in outcome.metrics.items()}
    assert metrics["exec.run_sessions.sessions"] == outcome_sessions(name)
    if name == "fig14-default":
        assert metrics["exec.execute_jobs_batched.calls"] == 0
        assert metrics["exec.batched_frac"] == 0.0
    if name == "fig06-smoke":
        assert metrics["exec.batched_frac"] == 1.0
    assert outcome.report["prediction"]["holds"] or name == "fig06-smoke"


def outcome_sessions(name):
    return _tiny(name).experiment.sessions


def test_replay_scale_differs_from_smoke_only_in_the_epoch_budget():
    smoke = get_scale("smoke")
    assert replace(REPLAY_SCALE, name=smoke.name, mlp_epochs=smoke.mlp_epochs) == smoke


def test_a_fit_at_the_replay_budget_never_stops_early():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6))
    y = np.arange(40) % 2
    config = MLPConfig(hidden_sizes=(4,), max_epochs=REPLAY_SCALE.mlp_epochs)
    classifier = MLPClassifier(6, 2, config).fit(x, y, x[:4], np.zeros(4, dtype=int))
    assert len(classifier.history) == REPLAY_SCALE.mlp_epochs


def test_expected_n_test_matches_the_pipeline_at_smoke_scale():
    assert Fig06("smoke").expected_n_test() == 4 * 3 * 3
    assert Fig14("default").sessions == 55
