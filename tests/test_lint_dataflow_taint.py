"""Secret-taint certification (MAYA020-MAYA022): source/declassifier
policy, the known-bad fixture corpus, transitive flows, and the leakage
certificate gate over the shipped source tree."""

from pathlib import Path

import pytest

import repro
from repro.lint import LintEngine
from repro.lint.dataflow import is_source_name

PACKAGE_DIR = Path(repro.__file__).resolve().parent
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "dataflow_bad"

CERT_KEYS = {
    "schema",
    "ok",
    "policy",
    "functions_in_scope",
    "sinks_checked",
    "violations",
}


def taint_engine():
    return LintEngine(rules=(), analyses=("taint",))


class TestPolicy:
    @pytest.mark.parametrize(
        "name", ["activity", "activities", "tick_powers", "secret_key", "activity_at"]
    )
    def test_sources(self, name):
        assert is_source_name(name)

    @pytest.mark.parametrize("name", ["measured_w", "target_w", "u_norm", "power_w"])
    def test_non_sources(self, name):
        assert not is_source_name(name)


class TestFixtureCorpus:
    def test_mask_fixture_trips_branch_and_parameter_rules(self):
        report = taint_engine().run_paths([FIXTURE_DIR / "masks"])
        assert {d.rule_id for d in report.diagnostics} == {"MAYA020", "MAYA021"}

    def test_actuator_fixture_trips_direct_and_transitive(self):
        report = taint_engine().run_paths(
            [FIXTURE_DIR / "control" / "taint_bad_actuator.py"]
        )
        assert [d.rule_id for d in report.diagnostics] == ["MAYA022", "MAYA022"]
        assert any("inside 'commit'" in d.message for d in report.diagnostics)

    @pytest.mark.parametrize("call", ["quantize_index", "quantize_indices"])
    def test_index_quantizers_are_actuator_sinks(self, tmp_path, call):
        module = tmp_path / "control" / "fleet.py"
        module.parent.mkdir()
        module.write_text(f"def command(bank, activity):\n    return bank.{call}(activity)\n")
        report = taint_engine().run_paths([module])
        assert [d.rule_id for d in report.diagnostics] == ["MAYA022"]

    def test_declassified_fixture_certifies_clean(self):
        report = taint_engine().run_paths(
            [FIXTURE_DIR / "control" / "taint_ok_declassified.py"]
        )
        assert report.diagnostics == []
        assert report.certificate["ok"] is True
        # The branch and the actuator command were still *checked*.
        assert report.certificate["sinks_checked"]["branches"] >= 1
        assert report.certificate["sinks_checked"]["actuator_commands"] >= 1

    def test_whole_corpus_certificate_lists_violations(self):
        report = taint_engine().run_paths([FIXTURE_DIR])
        cert = report.certificate
        assert cert["ok"] is False
        assert CERT_KEYS <= set(cert)
        recorded = {(v["rule_id"], v["path"]) for v in cert["violations"]}
        mask_path = str(FIXTURE_DIR / "masks" / "taint_bad_flow.py").replace("\\", "/")
        assert ("MAYA021", mask_path) in recorded

    def test_sinks_outside_scope_are_ignored(self):
        src = "def f(bank, activity):\n    if activity > 0.5:\n        return 1\n    return 0\n"
        report = taint_engine().run_source(src, "repro/machine/probe.py")
        assert report.diagnostics == []


class TestSourceTreeGate:
    """The shipped defense must certify: masks/control never see secrets."""

    def test_src_repro_certifies_clean(self):
        report = taint_engine().run_paths([PACKAGE_DIR])
        assert report.diagnostics == [], "\n".join(
            d.format() for d in report.diagnostics
        )
        cert = report.certificate
        assert cert["ok"] is True
        assert cert["violations"] == []
        assert cert["policy"]["declassifiers"] == ["measure_window", "measure_windows"]

    def test_certificate_covers_real_sinks(self):
        cert = taint_engine().run_paths([PACKAGE_DIR]).certificate
        # The controller/mask packages contain real branches, mask
        # parameter stores, and actuator commands; the certificate must
        # show they were actually examined, not vacuously passed.
        assert cert["functions_in_scope"] > 50
        assert cert["sinks_checked"]["branches"] > 10
        assert cert["sinks_checked"]["mask_parameters"] > 5
        assert cert["sinks_checked"]["actuator_commands"] >= 1
