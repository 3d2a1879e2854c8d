"""Declarative session jobs: everything needed to re-run one simulation.

A :class:`SessionJob` is a pure-data description of one ``(platform,
workload, defense, seed, run_id)`` simulation session — the unit of work
every experiment and the attack pipeline fan out over.  Because the job is
declarative (names, numbers and small tuples only), it can be hashed
into a stable content address (:meth:`SessionJob.key`) for the trace
cache, salted with a digest of the simulation sources so stale traces can
never survive a code change, and its defense factory can be rebuilt from
the job fields alone.

The spawn-keyed RNG scheme (:func:`repro.machine.rng.spawn`) makes every
session a deterministic function of its job spec, so executing the same
job serially, lock-step in a batch, or from the cache yields bit-identical
traces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

from ..core.runtime import make_machine, run_session
from ..defenses.designs import DefenseFactory
from ..machine import PlatformSpec, SimulatedMachine, Trace
from ..workloads import get_workload

__all__ = [
    "SessionJob",
    "execute_job",
    "code_salt",
    "CACHE_EPOCH",
]

#: Bump to invalidate every cached trace when simulation *semantics* change
#: without a source-text change (e.g. a numpy upgrade known to alter
#: results).  Source-text changes are caught automatically by the salt.
CACHE_EPOCH = 1

#: Packages whose sources define what a simulated session computes.  The cache key is salted with their content digest, so
#: editing any of them invalidates every cached trace.  ``exec`` is not
#: salted: its backends are bit-identical by contract, so their code cannot
#: change trace values.
_SIMULATION_PACKAGES = (
    "core", "machine", "defenses", "workloads", "control", "masks",
)


def _digest_simulation_sources(root: Path, packages: tuple, epoch: int) -> str:
    """SHA-256 over the sources of ``packages`` under ``root``.

    Every entry names a package directory.  An entry naming a missing or
    Python-free directory is a silent cache-soundness hole (the digest
    would simply skip it, so edits to the real package would never
    invalidate cached traces) — raise instead.
    """
    digest = hashlib.sha256()
    digest.update(f"epoch={epoch}".encode())
    for package in packages:
        paths = sorted((root / package).rglob("*.py"))
        if not paths:
            raise RuntimeError(
                f"code_salt: salt entry '{package}' matches no Python "
                f"sources under {root}; the cache key would silently stop "
                f"covering that package"
            )
        for path in paths:
            digest.update(str(path.relative_to(root)).replace("\\", "/").encode())
            digest.update(b"\x1f")
            digest.update(path.read_bytes())
            digest.update(b"\x1e")
    return digest.hexdigest()


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of the simulation sources (plus :data:`CACHE_EPOCH`).

    Memoized for the life of the process: the digest walks every salted
    source file, and ``key()`` is called per job.  The caveat is that a
    source edit made *while a process is running* is not picked up — the
    salt reflects the tree as it was at the first ``key()`` call.  That is
    the intended trade: processes are short-lived relative to edits, and
    any new process (CI, a rerun) re-digests from disk.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    return _digest_simulation_sources(root, _SIMULATION_PACKAGES, CACHE_EPOCH)


def _assert_salt_certified() -> None:
    """Pin ``_SIMULATION_PACKAGES`` to the committed purity certificate.

    The MAYA051 analysis proves the salt covers the simulation closure and
    commits the proven entry list in ``certs/purity/execute_job.json``;
    asserting it at import time turns an uncertified salt edit into an
    immediate, loud failure instead of a silently unsound cache.  Source
    checkouts without the certificate (installed wheels, vendored copies)
    skip the check — there the lint gate itself is absent too.
    """
    cert_path = (
        Path(__file__).resolve().parents[3] / "certs" / "purity" / "execute_job.json"
    )
    try:
        certified = json.loads(cert_path.read_text(encoding="utf-8"))["salt"]["declared"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    if not isinstance(certified, list):
        return
    if sorted(certified) != sorted(_SIMULATION_PACKAGES):
        raise RuntimeError(
            f"_SIMULATION_PACKAGES {sorted(_SIMULATION_PACKAGES)} disagrees "
            f"with the committed purity certificate {sorted(certified)}; "
            f"rerun 'repro-lint --analyze purity --write-certs certs' so the "
            f"MAYA051 analysis re-certifies the salt"
        )


_assert_salt_certified()


def _as_pairs(value: object) -> tuple:
    """Normalize a dict (or iterable of pairs) into sorted hashable pairs."""
    if value is None:
        return ()
    items = value.items() if isinstance(value, dict) else value
    return tuple(sorted((str(key), val) for key, val in items))


@dataclass(frozen=True)
class SessionJob:
    """Pure-data spec of one simulation session (see module docstring)."""

    #: Platform the session runs on (frozen dataclass: picklable, hashable).
    spec: PlatformSpec
    #: Workload registry name (:func:`repro.workloads.get_workload`).
    workload: str
    #: Table V design name the victim deploys.
    defense: str
    #: Extra keyword arguments for the workload constructor, as sorted pairs.
    workload_kwargs: tuple = ()
    #: Seed the defense factory was built with.
    factory_seed: int = 0
    #: Factory-level MayaConfig overrides (e.g. ``sysid_intervals``).
    design_overrides: tuple = ()
    #: Session seed and run identifier — the RNG spawn keys.
    seed: int = 0
    run_id: object = 0
    duration_s: object = None
    interval_s: float = 0.020
    tick_s: float = 0.001
    max_duration_s: float = 600.0
    tail_s: float = 2.0
    record_temperature: bool = False
    workload_jitter: float = 0.08

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload_kwargs", _as_pairs(self.workload_kwargs))
        object.__setattr__(self, "design_overrides", _as_pairs(self.design_overrides))

    @classmethod
    def for_factory(
        cls,
        factory: DefenseFactory,
        *,
        workload: str,
        defense: str,
        spec: PlatformSpec | None = None,
        **kwargs: object,
    ) -> "SessionJob":
        """Build a job whose declarative factory fields snapshot ``factory``."""
        return cls(
            spec=spec if spec is not None else factory.spec,
            workload=workload,
            defense=defense,
            factory_seed=factory.seed,
            design_overrides=_as_pairs(factory.design_overrides),
            **kwargs,
        )

    # -- content addressing -------------------------------------------

    def describe(self) -> dict:
        """Canonical JSON-ready description (the content-hash payload)."""
        payload = asdict(self)
        payload["spec"] = asdict(self.spec)
        payload["run_id"] = repr(self.run_id)
        payload["workload_kwargs"] = [list(pair) for pair in self.workload_kwargs]
        payload["design_overrides"] = [list(pair) for pair in self.design_overrides]
        return payload

    def key(self) -> str:
        """Stable content address of this job, salted with the code digest.

        The 64-hex-digit address is also the job's storage identity: the
        sharded trace store (:mod:`repro.exec.cache`) buckets entries by
        its first two digits, and run-registry manifests
        (:mod:`repro.exec.registry`) cite it to bind results to inputs.
        sha256's uniformity keeps the 256 shard buckets balanced.
        """
        digest = hashlib.sha256()
        digest.update(code_salt().encode())
        digest.update(b"\x1f")
        digest.update(
            json.dumps(self.describe(), sort_keys=True, default=repr).encode()
        )
        return digest.hexdigest()

    # -- execution ----------------------------------------------------

    def matches_factory(self, factory: DefenseFactory) -> bool:
        """Whether ``factory`` is the one this job describes."""
        return (
            factory.spec == self.spec
            and factory.seed == self.factory_seed
            and _as_pairs(factory.design_overrides) == self.design_overrides
        )

    def resolve_factory(self, factory: DefenseFactory | None = None) -> DefenseFactory:
        """The factory to build this job's defense with.

        ``factory`` is an in-process optimization only: it is used when it
        matches the job's declarative description (skipping a rebuild of
        the expensive Maya designs), otherwise an equivalent factory is
        built — and memoized per process — from the job fields alone.
        """
        if factory is None or not self.matches_factory(factory):
            factory = _factory_for(self)
        return factory

    def build_machine(self) -> "SimulatedMachine":
        """A fresh simulated machine seeded exactly as this job describes."""
        workload = get_workload(self.workload, **dict(self.workload_kwargs))
        return make_machine(
            self.spec,
            workload,
            seed=self.seed,
            run_id=self.run_id,
            tick_s=self.tick_s,
            record_temperature=self.record_temperature,
            workload_jitter=self.workload_jitter,
        )

    def execute(self, factory: DefenseFactory | None = None) -> Trace:
        """Run the session and return its trace (see :meth:`resolve_factory`)."""
        factory = self.resolve_factory(factory)
        return run_session(
            self.build_machine(),
            factory.create(self.defense),
            seed=self.seed,
            run_id=self.run_id,
            interval_s=self.interval_s,
            duration_s=self.duration_s,
            max_duration_s=self.max_duration_s,
            tail_s=self.tail_s,
        )


#: Per-process factory memo: Maya designs (sysid + synthesis) are expensive,
#: so each process builds them at most once per declarative description.
_FACTORY_CACHE: dict = {}


def _factory_for(job: SessionJob) -> DefenseFactory:
    key = (job.spec, int(job.factory_seed), job.design_overrides)
    factory = _FACTORY_CACHE.get(key)
    if factory is None:
        factory = DefenseFactory(
            job.spec, seed=job.factory_seed,
            design_overrides=dict(job.design_overrides),
        )
        _FACTORY_CACHE[key] = factory
    return factory


def execute_job(job: SessionJob) -> Trace:
    """Run one job with a factory built from its own fields."""
    return job.execute()
