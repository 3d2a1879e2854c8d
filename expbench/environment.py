"""Environment hygiene and provenance for benchmark runs.

:func:`sanitize` must run before numpy is imported: it clears every
``REPRO_*`` knob (each selects a different program: ``REPRO_PRECISION=fast``
loosens the arithmetic, ``REPRO_WORKERS=2`` turns serial collection into a
process pool, ``REPRO_CACHE`` serves sessions from a store) and pins the
BLAS/OpenMP pools to one thread, so a run measures the default path a user
gets from one process.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import MutableMapping

__all__ = ["THREAD_VARS", "git_sha", "provenance", "sanitize"]

#: Thread-pool sizes pinned to 1 before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def sanitize(environ: MutableMapping[str, str]) -> list[str]:
    """Clear every ``REPRO_*`` variable and pin thread pools; return the cleared names."""
    cleared = sorted(name for name in environ if name.startswith("REPRO_"))
    for name in cleared:
        del environ[name]
    for name in THREAD_VARS:
        environ[name] = "1"
    return cleared


def git_sha(root: Path) -> "str | None":
    """HEAD of the git checkout at ``root``, or None when ``root`` is not one.

    No git process starts outside a checkout, and git reads no system or
    user configuration.
    """
    if not (Path(root) / ".git").exists():
        return None
    env = dict(
        os.environ,
        GIT_CEILING_DIRECTORIES=str(Path(root).resolve().parent),
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=os.devnull,
    )
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def provenance(root: Path, seed: int, cleared: list[str]) -> dict:
    """What a report needs to be traced back to its code and host."""
    import numpy

    from repro.exec import code_salt

    return {
        "code_salt": code_salt(),
        "git_sha": git_sha(root),
        "seed": int(seed),
        "nproc": (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cleared_env": list(cleared),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
