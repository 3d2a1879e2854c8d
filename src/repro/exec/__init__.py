"""Execution engine + content-addressed trace cache.

Every simulation batch in the reproduction — the per-figure experiments
and the attack pipeline's trace collection — routes through
:func:`run_sessions`, which runs declarative :class:`SessionJob` specs
serially or lock-step in batches and returns the traces in job order,
with results guaranteed bit-identical to the serial path.  See
:mod:`repro.exec.engine` for the determinism contract and
:mod:`repro.exec.cache` for the cache layout and environment knobs.
"""

from .batch import (
    BatchedMachine,
    batch_key,
    execute_jobs_batched,
)
from .cache import (
    DEFAULT_CACHE_DIR,
    LAYOUT_VERSION,
    PACK_SCHEMA,
    TraceCache,
    default_cache,
)
from .engine import (
    BACKENDS,
    choose_backend,
    resolve_backend,
    run_sessions,
)
from .jobs import (
    CACHE_EPOCH,
    SessionJob,
    code_salt,
    execute_job,
)
from .registry import (
    MANIFEST_SCHEMA,
    RunRegistry,
    default_registry,
    record_run,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "LAYOUT_VERSION",
    "PACK_SCHEMA",
    "TraceCache",
    "default_cache",
    "MANIFEST_SCHEMA",
    "RunRegistry",
    "default_registry",
    "record_run",
    "BACKENDS",
    "BatchedMachine",
    "batch_key",
    "choose_backend",
    "execute_jobs_batched",
    "resolve_backend",
    "run_sessions",
    "CACHE_EPOCH",
    "SessionJob",
    "code_salt",
    "execute_job",
]
