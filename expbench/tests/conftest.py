"""Make the program source and the benchmark package importable, and run
every harness test with no ``REPRO_*`` knob set."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def _clean_repro_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
