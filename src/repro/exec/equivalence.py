"""Runtime equivalence certificates for the ``precision="fast"`` tier.

The exact tier's correctness oracle is :meth:`Trace.equals` — bit-identity
against the serial runner.  The fast tier deliberately gives that up at a
small, enumerated set of *loosened sites* (vectorized transcendentals,
the batched AR(1) recurrence), each of which
carries a static worst-case rounding bound in ``certs/numeric/`` produced
by the reassociation-safety analysis (``repro-lint --analyze numeric``).

This module closes the loop at runtime: given the exact and fast traces of
one batch group, it measures the realized per-field error, cites the static
bound of every loosened site that can reach that field, and emits a
``maya.exec.equivalence-certificate.v1`` document.  A field passes when its
measured error is within the *sum* of its cited static bounds (in ulps or
absolute terms — either suffices, since the static bounds are expressed
both ways); fields with no loosened sites on their dataflow
(``completed_at_s``) must be bit-identical.  :func:`require` fails the run
loudly on any excess — a fast result that drifts past its certified bound
(e.g. a quantization knife-edge flipped by upstream drift) is a
wrong answer, not a tolerance question.

The certificate is written next to the batch group's cache entries
(``<group-key>.equiv.json``) so a cached fast trace always sits beside the
evidence that it was certified, and the attack-level
:class:`~repro.attacks.pipeline.AttackOutcome` comparison can be attached
by the caller (:func:`attach_attack_outcome`) — the end-to-end result must
be *identical*, not merely close.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..machine import Trace

__all__ = [
    "CERT_SCHEMA",
    "LOOSENED_SITES",
    "FIELD_SITES",
    "EquivalenceError",
    "certify_traces",
    "attach_attack_outcome",
    "require",
    "write_certificate",
    "load_certificate",
]

CERT_SCHEMA = "maya.exec.equivalence-certificate.v1"

#: Every numeric loosening the fast tier performs, by name: the module
#: whose static certificate bounds it and the site ``kind`` to cite there.
#: Adding a fast kernel that reassociates anything new means adding a row
#: here — and the citation fails loudly if the static analysis has no
#: matching order-sensitive site for it.
LOOSENED_SITES: "dict[str, tuple[str, str]]" = {
    # Batched mask sinusoids (repro.masks.next_targets_fast).
    "mask-transcendental": ("repro.masks.generators", "transcendental"),
    # Whole-phase-span activity oscillations (exec.fast._materialize).
    "workload-transcendental": ("repro.workloads.phases", "transcendental"),
    # Batched AR(1) sensor-noise filtering (machine.power lfilter).
    "noise-recurrence": ("repro.machine.power", "recurrence"),
}

#: Which loosened sites can reach each certified trace field.  Power flows
#: through the activity oscillator and the AR(1) noise model; the mask
#: target stream only through the mask sinusoid.  ``settings`` cites no
#: site: both tiers run the exact controller fleet step, and its level
#: snap absorbs the mask drift, so any difference is a flipped level and
#: fails.  ``completed_at_s`` has no loosened site on its dataflow: the
#: fast tier replays the segmentation bookkeeping exactly, so it must be
#: bit-identical.
FIELD_SITES: "dict[str, tuple[str, ...]]" = {
    "power_w": ("workload-transcendental", "noise-recurrence"),
    "measured_w": ("workload-transcendental", "noise-recurrence"),
    "temperature_c": ("workload-transcendental", "noise-recurrence"),
    "target_w": ("mask-transcendental",),
    "settings": (),
    "completed_at_s": (),
}


class EquivalenceError(RuntimeError):
    """A fast trace exceeded its certified bound (or could not be certified)."""


def _default_certs_dir() -> Path:
    return Path(__file__).resolve().parents[3] / "certs" / "numeric"


def _site_bounds(site_name: str, certs_dir: Path) -> "dict":
    """The summed static bound for one loosened site, from its module cert."""
    module, kind = LOOSENED_SITES[site_name]
    path = certs_dir / f"{module}.json"
    if not path.is_file():
        raise EquivalenceError(
            f"loosened site {site_name!r} cites {module}, but no static numeric "
            f"certificate exists at {path}; run `repro-lint --analyze numeric`"
        )
    document = json.loads(path.read_text())
    matching = [
        site for site in document.get("order_sensitive_sites", [])
        if site.get("kind") == kind
    ]
    if not matching:
        raise EquivalenceError(
            f"loosened site {site_name!r} cites kind {kind!r} in {module}, but "
            f"{path.name} records no order-sensitive site of that kind"
        )
    return {
        "module": module,
        "kind": kind,
        "n_static_sites": len(matching),
        "ulp_bound": float(sum(site["ulp_error_bound"] for site in matching)),
        "abs_bound": float(sum(site["abs_error_bound"] for site in matching)),
        "lines": sorted({int(site["line"]) for site in matching}),
    }


def _field_errors(exact: np.ndarray, fast: np.ndarray) -> "tuple[float, float]":
    """(max ulp error, max abs error) of ``fast`` against ``exact``.

    NaN-tolerant in the :meth:`Trace.equals` sense: matching NaNs count as
    zero error, a NaN on one side only is an infinite error.
    """
    exact = np.asarray(exact, dtype=np.float64)
    fast = np.asarray(fast, dtype=np.float64)
    if exact.shape != fast.shape:
        raise EquivalenceError(
            f"structural mismatch: exact shape {exact.shape} vs fast {fast.shape}"
        )
    if exact.size == 0:
        return 0.0, 0.0
    exact_nan = np.isnan(exact)
    fast_nan = np.isnan(fast)
    if np.logical_xor(exact_nan, fast_nan).any():
        return math.inf, math.inf
    both = ~exact_nan
    if not both.any():
        return 0.0, 0.0
    abs_err = np.abs(fast[both] - exact[both])
    # Ulps of the exact value: 0 whenever bit-identical, finite otherwise.
    ulp = abs_err / np.spacing(np.abs(exact[both]))
    return float(ulp.max()), float(abs_err.max())


def _trace_field(trace: Trace, field: str) -> np.ndarray:
    value = getattr(trace, field)
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


def certify_traces(
    exact_traces: "list[Trace]",
    fast_traces: "list[Trace]",
    certs_dir: "Path | str | None" = None,
) -> dict:
    """Measure one batch group's fast traces against their exact twins.

    Returns the certificate document (does not raise on a failed field —
    pass the result through :func:`require` to enforce it, so callers can
    persist the evidence of a failure before failing).
    """
    certs_dir = Path(certs_dir) if certs_dir is not None else _default_certs_dir()
    if len(exact_traces) != len(fast_traces):
        raise EquivalenceError(
            f"group size mismatch: {len(exact_traces)} exact vs "
            f"{len(fast_traces)} fast traces"
        )
    sites = {name: _site_bounds(name, certs_dir) for name in LOOSENED_SITES}

    fields: dict = {}
    ok = True
    for field, cited in FIELD_SITES.items():
        max_ulp = 0.0
        max_abs = 0.0
        for exact, fast in zip(exact_traces, fast_traces):
            if (exact.workload, exact.platform, exact.defense) != (
                fast.workload, fast.platform, fast.defense
            ):
                raise EquivalenceError(
                    f"trace identity mismatch: {exact.workload}/{exact.defense} "
                    f"vs {fast.workload}/{fast.defense}"
                )
            ulp_err, abs_err = _field_errors(
                _trace_field(exact, field), _trace_field(fast, field)
            )
            max_ulp = max(max_ulp, ulp_err)
            max_abs = max(max_abs, abs_err)
        if cited:
            ulp_bound = sum(sites[name]["ulp_bound"] for name in cited)
            abs_bound = sum(sites[name]["abs_bound"] for name in cited)
            field_ok = max_ulp <= ulp_bound or max_abs <= abs_bound
        else:
            ulp_bound = 0.0
            abs_bound = 0.0
            field_ok = max_abs <= 0.0
        ok = ok and field_ok
        fields[field] = {
            "sites": list(cited),
            "max_ulp": max_ulp,
            "max_abs": max_abs,
            "ulp_bound": float(ulp_bound),
            "abs_bound": float(abs_bound),
            "ok": field_ok,
        }

    return {
        "schema": CERT_SCHEMA,
        "n_traces": len(fast_traces),
        "defenses": sorted({trace.defense for trace in fast_traces}),
        "workloads": sorted({trace.workload for trace in fast_traces}),
        "sites": sites,
        "fields": fields,
        "ok": ok,
    }


def attach_attack_outcome(cert: dict, exact_outcome, fast_outcome) -> dict:
    """Record the required-identical end-to-end attack comparison.

    The downstream :class:`AttackOutcome` (confusion matrix and split
    sizes) must be *identical* between tiers — bounded numeric drift that
    changes a classification is an equivalence failure by definition.
    Mutates and returns ``cert``; enforce with :func:`require`.
    """
    exact_matrix = np.asarray(exact_outcome.result.matrix)
    fast_matrix = np.asarray(fast_outcome.result.matrix)
    identical = (
        exact_matrix.shape == fast_matrix.shape
        and bool(np.array_equal(exact_matrix, fast_matrix))
        and exact_outcome.result.class_names == fast_outcome.result.class_names
        and (exact_outcome.n_train, exact_outcome.n_val, exact_outcome.n_test)
        == (fast_outcome.n_train, fast_outcome.n_val, fast_outcome.n_test)
    )
    cert["attack_outcome"] = {
        "identical": identical,
        "exact_accuracy": float(exact_outcome.average_accuracy),
        "fast_accuracy": float(fast_outcome.average_accuracy),
    }
    cert["ok"] = bool(cert["ok"]) and identical
    return cert


def require(cert: dict) -> dict:
    """Fail loudly unless every certified field is within its cited bound."""
    if cert.get("ok"):
        return cert
    failed = [
        f"{field}: max_ulp={stats['max_ulp']:.3g} (bound {stats['ulp_bound']:.3g}), "
        f"max_abs={stats['max_abs']:.3g} (bound {stats['abs_bound']:.3g})"
        for field, stats in cert.get("fields", {}).items()
        if not stats["ok"]
    ]
    outcome = cert.get("attack_outcome")
    if outcome is not None and not outcome["identical"]:
        failed.append(
            f"attack_outcome: exact accuracy {outcome['exact_accuracy']:.4f} "
            f"!= fast accuracy {outcome['fast_accuracy']:.4f}"
        )
    raise EquivalenceError(
        "fast tier exceeded its certified equivalence bounds — "
        + "; ".join(failed or ["no field details recorded"])
    )


def write_certificate(cert: dict, path: "Path | str") -> Path:
    """Persist a certificate as deterministic, human-diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")
    return path


def load_certificate(path: "Path | str") -> dict:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != CERT_SCHEMA:
        raise EquivalenceError(
            f"{path}: not an equivalence certificate (schema {document.get('schema')!r})"
        )
    return document
