"""code_salt() hardening: digest sensitivity, fail-loud salt geometry,
and the import-time pin against the committed purity certificate."""

import json
import shutil
from pathlib import Path

import pytest

import repro
import repro.exec.jobs as jobs_mod
from repro.exec.jobs import (
    CACHE_EPOCH,
    _SIMULATION_PACKAGES,
    _digest_simulation_sources,
)

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parent.parent


def copy_salted_tree(tmp_path):
    """A private copy of the salted packages, safe to mutate."""
    root = tmp_path / "repro"
    for package in _SIMULATION_PACKAGES:
        shutil.copytree(PACKAGE_ROOT / package, root / package)
    return root


def salted_sources(root, package):
    """Every digested source file of one salt entry, sorted."""
    return sorted((root / package).rglob("*.py"))


class TestDigestSensitivity:
    def test_editing_any_salted_package_changes_the_digest(self, tmp_path):
        root = copy_salted_tree(tmp_path)
        base = _digest_simulation_sources(root, _SIMULATION_PACKAGES, CACHE_EPOCH)
        for package in _SIMULATION_PACKAGES:
            target = salted_sources(root, package)[0]
            original = target.read_bytes()
            target.write_bytes(original + b"\n# perturbed\n")
            changed = _digest_simulation_sources(
                root, _SIMULATION_PACKAGES, CACHE_EPOCH
            )
            assert changed != base, package
            target.write_bytes(original)
        # Restoring every byte restores the digest.
        assert (
            _digest_simulation_sources(root, _SIMULATION_PACKAGES, CACHE_EPOCH)
            == base
        )

    def test_renaming_a_file_changes_the_digest(self, tmp_path):
        root = copy_salted_tree(tmp_path)
        base = _digest_simulation_sources(root, _SIMULATION_PACKAGES, CACHE_EPOCH)
        target = sorted((root / "masks").rglob("*.py"))[-1]
        target.rename(target.with_name("renamed_probe.py"))
        assert (
            _digest_simulation_sources(root, _SIMULATION_PACKAGES, CACHE_EPOCH)
            != base
        )

    def test_epoch_bump_changes_the_digest(self, tmp_path):
        root = copy_salted_tree(tmp_path)
        assert _digest_simulation_sources(
            root, _SIMULATION_PACKAGES, CACHE_EPOCH
        ) != _digest_simulation_sources(
            root, _SIMULATION_PACKAGES, CACHE_EPOCH + 1
        )

    def test_code_salt_matches_direct_digest(self):
        jobs_mod.code_salt.cache_clear()
        assert jobs_mod.code_salt() == _digest_simulation_sources(
            PACKAGE_ROOT, _SIMULATION_PACKAGES, CACHE_EPOCH
        )


class TestFailLoudGeometry:
    """A salt entry that digests nothing is an error, never a no-op."""

    def test_missing_package_raises(self, tmp_path):
        root = copy_salted_tree(tmp_path)
        shutil.rmtree(root / "masks")
        with pytest.raises(RuntimeError, match="masks"):
            _digest_simulation_sources(root, _SIMULATION_PACKAGES, CACHE_EPOCH)

    def test_python_free_package_raises(self, tmp_path):
        root = copy_salted_tree(tmp_path)
        shutil.rmtree(root / "masks")
        (root / "masks").mkdir()
        with pytest.raises(RuntimeError, match="masks"):
            _digest_simulation_sources(root, _SIMULATION_PACKAGES, CACHE_EPOCH)


class TestSaltCertification:
    def test_committed_certificate_matches_the_salt(self):
        cert_path = REPO_ROOT / "certs" / "purity" / "execute_job.json"
        cert = json.loads(cert_path.read_text(encoding="utf-8"))
        assert sorted(cert["salt"]["declared"]) == sorted(_SIMULATION_PACKAGES)
        assert cert["salt"]["verdict"] == "ok"

    def test_assertion_passes_on_this_checkout(self):
        jobs_mod._assert_salt_certified()

    def _redirect(self, monkeypatch, tmp_path):
        """Point the module's certificate lookup at a scratch repo root."""
        fake_file = tmp_path / "src" / "repro" / "exec" / "jobs.py"
        monkeypatch.setattr(jobs_mod, "__file__", str(fake_file))
        return tmp_path / "certs" / "purity" / "execute_job.json"

    def test_mismatched_certificate_raises(self, monkeypatch, tmp_path):
        cert_path = self._redirect(monkeypatch, tmp_path)
        cert_path.parent.mkdir(parents=True)
        cert_path.write_text(json.dumps({"salt": {"declared": ["core"]}}))
        with pytest.raises(RuntimeError, match="purity certificate"):
            jobs_mod._assert_salt_certified()

    def test_missing_certificate_is_a_no_op(self, monkeypatch, tmp_path):
        self._redirect(monkeypatch, tmp_path)
        jobs_mod._assert_salt_certified()  # no certs/ at all: skip silently

    def test_malformed_certificate_is_a_no_op(self, monkeypatch, tmp_path):
        cert_path = self._redirect(monkeypatch, tmp_path)
        cert_path.parent.mkdir(parents=True)
        cert_path.write_text("not json {")
        jobs_mod._assert_salt_certified()
        cert_path.write_text(json.dumps({"salt": {"declared": "core"}}))
        jobs_mod._assert_salt_certified()
