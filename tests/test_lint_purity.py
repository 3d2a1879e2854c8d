"""Purity & cache-salt soundness certification (MAYA050-MAYA053): the
known-bad fixture corpus, the clean-tree gate, the MAYA051 acceptance
demos (salt deletion / unsalted import), certificate structure and
determinism, the committed-certificate drift check, and the CLI plumbing
(--analyze purity, --write-certs / --check-certs, --stats)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lint import (
    LintEngine,
    analyze_purity,
    check_purity_certificates,
    write_purity_certificates,
)
from repro.lint.dataflow import PURITY_CERT_SCHEMA
from repro.lint.dataflow.model import ProjectModel

PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent.parent
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "purity_bad"
CERTS_DIR = REPO_ROOT / "certs" / "purity"

CERT_KEYS = {
    "schema",
    "entry",
    "entry_module",
    "closure_modules",
    "waivers",
    "salt",
    "ambient",
    "mutations",
    "job_key",
    "ok",
}

ENTRY_POINTS = {
    "execute_job",
    "execute_jobs_batched",
    "batch_window_power",
    "BatchedRaplSensor.measure_windows",
    "MayaInstance.decide_fleet",
    "MayaDefense.decide_fleet",
    "ControllerFleet.step",
    "activity_block",
}

SALT_PACKAGES = [
    "control", "core", "defenses", "machine", "masks", "workloads",
]


def purity_engine():
    return LintEngine(rules=(), analyses=("purity",))


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def analyze_patched(patch=None):
    """Run the purity analysis over src/repro with in-memory source edits.

    ``patch(path, text) -> text`` rewrites selected modules before
    parsing; the on-disk tree is never touched.  Returns
    ``(findings, certificates)``.
    """
    files, sources = [], {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        key = str(path)
        text = path.read_text(encoding="utf-8")
        if patch is not None:
            text = patch(key, text)
        files.append((key, ast.parse(text)))
        sources[key] = tuple(text.splitlines())
    return analyze_purity(ProjectModel(files), sources)


class TestFixtureCorpus:
    """Each known-bad fixture trips exactly the purity rule it encodes."""

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("ambient", ["MAYA050"]),
            ("unsalted", ["MAYA051", "MAYA051"]),
            ("mutation", ["MAYA052", "MAYA052"]),
            ("keyfield", ["MAYA053"]),
        ],
    )
    def test_fixture_trips_its_rule(self, name, expected):
        report = purity_engine().run_paths([FIXTURE_DIR / name])
        assert [d.rule_id for d in report.diagnostics] == expected

    def test_ambient_read_names_the_source(self):
        report = purity_engine().run_paths([FIXTURE_DIR / "ambient"])
        (diag,) = report.diagnostics
        assert "os.environ" in diag.message
        assert diag.path.endswith("physics/model.py")

    def test_unsalted_reports_both_directions(self):
        report = purity_engine().run_paths([FIXTURE_DIR / "unsalted"])
        messages = "\n".join(d.message for d in report.diagnostics)
        assert "noise.extra" in messages  # reachable but undeclared
        assert "thermals" in messages  # declared but unreachable

    def test_mutation_reports_module_and_class_state(self):
        report = purity_engine().run_paths([FIXTURE_DIR / "mutation"])
        messages = "\n".join(d.message for d in report.diagnostics)
        assert "_GAIN_TABLE" in messages
        assert "Calibration.reference" in messages

    def test_keyfield_names_the_unhashed_field(self):
        report = purity_engine().run_paths([FIXTURE_DIR / "keyfield"])
        (diag,) = report.diagnostics
        assert "noise_gain" in diag.message
        assert "KeyJob.key()" in diag.message

    def test_whole_corpus_covers_all_four_rules(self):
        report = purity_engine().run_paths([FIXTURE_DIR])
        assert {d.rule_id for d in report.diagnostics} == {
            "MAYA050",
            "MAYA051",
            "MAYA052",
            "MAYA053",
        }

    def test_fixture_certificates_record_the_defects(self):
        keyfield = purity_engine().run_paths([FIXTURE_DIR / "keyfield"])
        cert = keyfield.purity_certificates["execute_job"]
        assert cert["ok"] is False
        assert cert["job_key"]["class"] == "KeyJob"
        assert cert["job_key"]["missing"] == ["noise_gain"]
        unsalted = purity_engine().run_paths([FIXTURE_DIR / "unsalted"])
        salt = unsalted.purity_certificates["execute_job"]["salt"]
        assert salt["verdict"] == "unsound"
        assert salt["unsalted"] == ["noise.extra"]
        assert salt["dead_entries"] == ["thermals"]
        ambient = purity_engine().run_paths([FIXTURE_DIR / "ambient"])
        cert = ambient.purity_certificates["execute_job"]
        assert cert["ok"] is False
        assert [v["detail"] for v in cert["ambient"]["violations"]] == ["os.environ"]


class TestSourceTreeGate:
    """The shipped tree must certify purity-clean — and lose that
    certification the moment the salt or the closure is perturbed."""

    def test_src_repro_has_no_purity_findings(self):
        report = purity_engine().run_paths([PACKAGE_DIR])
        assert report.diagnostics == [], "\n".join(
            d.format() for d in report.diagnostics
        )

    def test_deleting_a_salt_entry_trips_maya051(self):
        def drop_workloads(path, text):
            if path.endswith("exec/jobs.py"):
                assert '"workloads", ' in text
                return text.replace('"workloads", ', "")
            return text

        findings, certs = analyze_patched(drop_workloads)
        rules = {f.rule_id for f in findings}
        assert rules == {"MAYA051"}
        messages = "\n".join(f.message for f in findings)
        assert "repro.workloads" in messages
        salt = certs["execute_job"]["salt"]
        assert salt["verdict"] == "unsound"
        assert any(m.startswith("repro.workloads") for m in salt["unsalted"])
        assert certs["execute_job"]["ok"] is False

    def test_unsalted_import_into_runtime_trips_maya051(self):
        def import_analysis(path, text):
            if path.endswith("core/runtime.py"):
                return text + "\nfrom ..analysis import summary as _probe\n"
            return text

        findings, certs = analyze_patched(import_analysis)
        assert {f.rule_id for f in findings} == {"MAYA051"}
        messages = "\n".join(f.message for f in findings)
        assert "repro.analysis" in messages
        assert certs["execute_job"]["ok"] is False


class TestCertificates:
    def certs(self):
        return purity_engine().run_paths([PACKAGE_DIR]).purity_certificates

    def test_one_certificate_per_entry_point(self):
        certs = self.certs()
        assert set(certs) == ENTRY_POINTS
        for name, cert in certs.items():
            assert cert["schema"] == PURITY_CERT_SCHEMA
            assert set(cert) == CERT_KEYS
            assert cert["entry"] == name
            assert cert["ok"] is True

    def test_execute_job_closure_is_tight(self):
        closure = self.certs()["execute_job"]["closure_modules"]
        for expected in (
            "repro.core.runtime",
            "repro.machine.power",
            "repro.defenses.designs",
            "repro.exec.jobs",
            "repro.telemetry",
        ):
            assert expected in closure
        # Orchestration, analysis, and unreachable defenses stay out: the
        # closure is what the session *executes*, not what the repo ships.
        assert "repro.exec.engine" not in closure
        assert "repro.defenses.selective" not in closure
        assert not any(m.startswith("repro.analysis") for m in closure)
        assert not any(m.startswith("repro.experiments") for m in closure)
        assert not any(m.startswith("repro.attacks") for m in closure)

    def test_salt_verdict_matches_the_committed_salt(self):
        salt = self.certs()["execute_job"]["salt"]
        assert salt["declared"] == SALT_PACKAGES
        assert salt["verdict"] == "ok"
        assert salt["unsalted"] == []
        assert salt["dead_entries"] == []

    def test_waivers_are_enumerated_with_reasons(self):
        certs = self.certs()
        waived = {w["module"]: w["reason"] for w in certs["execute_job"]["waivers"]}
        # execute() runs the serial runner only, so the lock-step backend
        # (repro.exec.batch) is outside the execute_job closure; the
        # batched entry point waives it.
        assert set(waived) == {"repro", "repro.exec.jobs", "repro.telemetry"}
        assert "code_salt()" in waived["repro.exec.jobs"]
        batched = {
            w["module"]: w["reason"]
            for w in certs["execute_jobs_batched"]["waivers"]
        }
        assert set(batched) == {
            "repro", "repro.exec.batch", "repro.exec.jobs", "repro.telemetry",
        }
        assert "MAYA043" in batched["repro.exec.batch"]
        # No simulation entry point reaches past the recorder facade into
        # a telemetry submodule (the retired wall-clock span profiler was
        # the last one the batched closure waived).
        for name, cert in certs.items():
            assert not any(
                module.startswith("repro.telemetry.")
                for module in cert["closure_modules"]
            ), name

    def test_job_key_accounts_for_every_field(self):
        job_key = self.certs()["execute_job"]["job_key"]
        assert job_key["class"] == "SessionJob"
        assert job_key["fields"] == [
            "defense", "design_overrides", "duration_s", "factory_seed",
            "interval_s", "max_duration_s", "record_temperature", "run_id",
            "seed", "spec", "tail_s", "tick_s", "workload", "workload_jitter",
            "workload_kwargs",
        ]
        assert job_key["hashed"] == job_key["fields"]
        assert job_key["missing"] == []

    def test_waived_effects_are_recorded_not_reported(self):
        cert = self.certs()["execute_job"]
        assert cert["ambient"]["violations"] == []
        assert cert["mutations"]["violations"] == []
        # The waived inventory is the audit trail: the factory memo and the
        # telemetry recorder state are known, contract-covered impurities.
        waived = {r["detail"] for r in cert["mutations"]["waived"]}
        assert any("_FACTORY_CACHE" in d for d in waived)

    def test_analysis_is_deterministic(self):
        assert self.certs() == self.certs()

    def test_write_then_check_round_trips(self, tmp_path):
        certs = self.certs()
        written = write_purity_certificates(certs, tmp_path)
        assert sorted(written) == sorted(p.name for p in tmp_path.glob("*.json"))
        assert (tmp_path / "execute_job.json").is_file()
        assert check_purity_certificates(certs, tmp_path) == []

    def test_check_detects_drift_and_missing(self, tmp_path):
        certs = self.certs()
        write_purity_certificates(certs, tmp_path)
        stale = tmp_path / "execute_job.json"
        payload = json.loads(stale.read_text())
        payload["salt"]["declared"] = ["core"]
        stale.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        (tmp_path / "batch_window_power.json").unlink()
        problems = "\n".join(check_purity_certificates(certs, tmp_path))
        assert "execute_job.json" in problems
        assert "batch_window_power.json" in problems

    def test_committed_certificates_match_regeneration(self):
        """The CI drift gate, run in-process: certs/purity is current."""
        proc = run_cli(
            "--analyze",
            "purity",
            "--check-certs",
            "certs/purity",
            "src/repro",
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert CERTS_DIR.is_dir() and list(CERTS_DIR.glob("*.json"))

    def test_acceptance_one_liner_from_repo_root(self):
        """--check-certs accepts the source tree and finds certs/ itself."""
        proc = run_cli(
            "--analyze", "purity", "--check-certs", "src/repro", cwd=REPO_ROOT
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCli:
    def test_purity_fixtures_exit_nonzero_with_rule_ids(self):
        proc = run_cli("--analyze", "purity", str(FIXTURE_DIR))
        assert proc.returncode == 1
        for rule_id in ("MAYA050", "MAYA051", "MAYA052", "MAYA053"):
            assert rule_id in proc.stdout

    def test_list_rules_includes_purity_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("MAYA050", "MAYA051", "MAYA052", "MAYA053"):
            assert rule_id in proc.stdout

    def test_github_format_emits_workflow_commands(self):
        proc = run_cli(
            "--analyze",
            "purity",
            "--format",
            "github",
            str(FIXTURE_DIR / "unsalted"),
        )
        assert proc.returncode == 1
        assert any(
            line.startswith("::error file=") and "title=MAYA051" in line
            for line in proc.stdout.splitlines()
        )

    def test_json_format_embeds_purity_certificates(self):
        proc = run_cli("--format", "json", "--analyze", "purity", str(PACKAGE_DIR))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        certs = payload["purity_certificates"]
        assert set(certs) == ENTRY_POINTS
        assert all(c["schema"] == PURITY_CERT_SCHEMA for c in certs.values())

    def test_write_certs_then_check_certs(self, tmp_path):
        write = run_cli(
            "--analyze", "purity", "--write-certs", str(tmp_path), str(PACKAGE_DIR)
        )
        assert write.returncode == 0, write.stdout + write.stderr
        assert "purity certificate" in write.stderr
        assert (tmp_path / "execute_job.json").is_file()
        check = run_cli(
            "--analyze", "purity", "--check-certs", str(tmp_path), str(PACKAGE_DIR)
        )
        assert check.returncode == 0, check.stdout + check.stderr
        (tmp_path / "execute_job.json").unlink()
        recheck = run_cli(
            "--analyze", "purity", "--check-certs", str(tmp_path), str(PACKAGE_DIR)
        )
        assert recheck.returncode == 1
        assert "purity-certificate" in recheck.stdout

    def test_combined_cert_analyses_use_subtrees(self, tmp_path):
        """The consolidated CI step: one DIR, per-analysis subtrees."""
        write = run_cli(
            "--analyze",
            "numeric",
            "--analyze",
            "purity",
            "--write-certs",
            str(tmp_path),
            str(PACKAGE_DIR),
        )
        assert write.returncode == 0, write.stdout + write.stderr
        assert (tmp_path / "purity" / "execute_job.json").is_file()
        assert list((tmp_path / "numeric").glob("*.json"))
        check = run_cli(
            "--analyze",
            "numeric",
            "--analyze",
            "purity",
            "--check-certs",
            str(tmp_path),
            str(PACKAGE_DIR),
        )
        assert check.returncode == 0, check.stdout + check.stderr

    def test_stats_reports_purity_rule_counts(self):
        proc = run_cli("--analyze", "purity", "--stats", str(FIXTURE_DIR))
        assert proc.returncode == 1
        for rule_id in ("MAYA050", "MAYA051", "MAYA052", "MAYA053"):
            assert rule_id in proc.stdout
        assert "total" in proc.stdout
