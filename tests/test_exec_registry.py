"""Tests for repro.exec.registry (manifest-backed run registry) and its CLI."""

import json

import pytest

from repro.exec import (
    MANIFEST_SCHEMA,
    RunRegistry,
    SessionJob,
    code_salt,
    default_registry,
    record_run,
)
from repro.exec.__main__ import main as exec_cli
from repro.machine import SYS1


def tiny_job(run=0):
    return SessionJob(
        spec=SYS1,
        workload="volrend",
        defense="baseline",
        seed=11,
        run_id=("registry-test", run),
        duration_s=0.5,
    )


class TestRecord:
    def test_manifest_binds_jobs_salt_and_artifacts(self, tmp_path):
        registry = RunRegistry(root=tmp_path)
        artifact = tmp_path / "report.json"
        artifact.write_text('{"n": 1}\n')
        jobs = [tiny_job(run=i) for i in range(2)]
        run_id = registry.record(
            "bench", "smoke", jobs=jobs, artifacts=[artifact],
            results={"accuracy": 0.9},
        )
        manifest = registry.get(run_id)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["run_id"] == run_id
        assert manifest["code_salt"] == code_salt()
        assert manifest["jobs"] == sorted(job.key() for job in jobs)
        assert manifest["results"] == {"accuracy": 0.9}
        (entry,) = manifest["artifacts"]
        assert entry["path"] == str(artifact)
        assert len(entry["sha256"]) == 64

    def test_run_id_is_deterministic_and_content_derived(self, tmp_path):
        registry = RunRegistry(root=tmp_path)
        jobs = [tiny_job()]
        first = registry.record("bench", "smoke", jobs=jobs,
                                results={"x": 1})
        again = registry.record("bench", "smoke", jobs=jobs,
                                results={"x": 1})
        changed = registry.record("bench", "smoke", jobs=jobs,
                                  results={"x": 2})
        assert first == again
        assert first != changed

    def test_list_runs_deduplicates_the_index(self, tmp_path):
        registry = RunRegistry(root=tmp_path)
        registry.record("bench", "a", results={"x": 1})
        registry.record("bench", "a", results={"x": 1})  # same id
        registry.record("attack", "b", results={"x": 2})
        rows = registry.list_runs()
        assert len(rows) == 2
        assert {row["kind"] for row in rows} == {"bench", "attack"}

    @pytest.mark.parametrize("line", ["[1]"])
    def test_list_runs_skips_records_that_are_not_objects(self, tmp_path, line):
        registry = RunRegistry(root=tmp_path)
        first = registry.record("bench", "a", results={"x": 1})
        with open(registry.index_path, "a") as index:
            index.write(line + "\n")
        second = registry.record("attack", "b", results={"x": 2})
        assert [row["run_id"] for row in registry.list_runs()] == [first, second]

    def test_unknown_run_id_raises(self, tmp_path):
        registry = RunRegistry(root=tmp_path)
        try:
            registry.get("deadbeef")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")


class TestDiff:
    def test_diff_reports_job_and_result_deltas(self, tmp_path):
        registry = RunRegistry(root=tmp_path)
        job_a, job_b = tiny_job(run=0), tiny_job(run=1)
        first = registry.record("bench", "smoke", jobs=[job_a],
                                results={"accuracy": 0.9})
        second = registry.record("bench", "smoke", jobs=[job_a, job_b],
                                 results={"accuracy": 0.8})
        delta = registry.diff(first, second)
        assert delta["jobs"]["added"] == [job_b.key()]
        assert delta["jobs"]["removed"] == []
        assert delta["jobs"]["shared"] == 1
        assert delta["results"] == {"a": {"accuracy": 0.9},
                                    "b": {"accuracy": 0.8}}
        assert "kind" not in delta  # identical fields are omitted

    def test_identical_runs_diff_empty(self, tmp_path):
        registry = RunRegistry(root=tmp_path)
        run_id = registry.record("bench", "smoke", results={"x": 1})
        assert registry.diff(run_id, run_id) == {}


class TestAmbient:
    def test_record_run_is_env_gated(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        assert default_registry() is None
        assert record_run("bench", "noop") is None
        monkeypatch.setenv("REPRO_REGISTRY", "1")
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
        run_id = record_run("bench", "smoke", results={"x": 1})
        assert run_id is not None
        assert RunRegistry(root=tmp_path).get(run_id)["name"] == "smoke"

    def test_attack_pipeline_records_a_manifest(self, tmp_path, monkeypatch):
        from repro.attacks.mlp import MLPConfig
        from repro.attacks.pipeline import AttackScenario, run_attack
        from repro.defenses.designs import DefenseFactory

        monkeypatch.setenv("REPRO_REGISTRY", "1")
        monkeypatch.setenv("REPRO_REGISTRY_DIR", str(tmp_path))
        scenario = AttackScenario(
            name="registry-attack",
            spec=SYS1,
            class_workloads=("volrend", "water_nsquared"),
            defense="baseline",
            runs_per_class=3,
            duration_s=4.0,
            segment_duration_s=2.0,
            segment_stride_s=1.0,
            mlp=MLPConfig(hidden_sizes=(8,), max_epochs=2),
            seed=5,
        )
        factory = DefenseFactory(SYS1, seed=scenario.seed)
        outcome = run_attack(scenario, factory, cache=False)
        registry = RunRegistry(root=tmp_path)
        rows = [row for row in registry.list_runs() if row["kind"] == "attack"]
        assert len(rows) == 1
        manifest = registry.get(rows[0]["run_id"])
        assert manifest["name"] == "registry-attack"
        assert manifest["results"]["average_accuracy"] == (
            outcome.average_accuracy
        )
        assert len(manifest["jobs"]) == 6  # 2 classes x 3 runs


class TestCli:
    def test_list_and_show(self, tmp_path, capsys):
        registry = RunRegistry(root=tmp_path)
        run_id = registry.record("bench", "smoke", results={"x": 1})
        assert exec_cli(["--registry", "list", "--dir", str(tmp_path)]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert rows == [{"kind": "bench", "name": "smoke", "run_id": run_id}]
        assert exec_cli(["--registry", "show", "--dir", str(tmp_path),
                         "--run", run_id]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["run_id"] == run_id

    def test_diff_command(self, tmp_path, capsys):
        registry = RunRegistry(root=tmp_path)
        first = registry.record("bench", "smoke", results={"x": 1})
        second = registry.record("bench", "smoke", results={"x": 2})
        assert exec_cli(["--registry", "diff", "--dir", str(tmp_path),
                         "--run", first, "--other", second]) == 0
        delta = json.loads(capsys.readouterr().out)
        assert delta["results"] == {"a": {"x": 1}, "b": {"x": 2}}

    def test_show_unknown_run_fails(self, tmp_path, capsys):
        assert exec_cli(["--registry", "show", "--dir", str(tmp_path),
                         "--run", "nope"]) == 1
        capsys.readouterr()

    def test_diff_requires_both_ids(self, tmp_path, capsys):
        assert exec_cli(["--registry", "diff", "--dir", str(tmp_path),
                         "--run", "x"]) == 2
        capsys.readouterr()
