"""The layer table: which public functions the traced run wraps.

Each layer is named ``<package>.<role>`` after the ``repro`` package that
owns the code.  Design-build layers are traced over set-up (the
``DefenseFactory`` build); every other layer over one timed op.  The
README lists, per layer, the end-to-end metric it should move and the
workloads on which it does most and no work.
"""

from __future__ import annotations

from .tracer import Target, Tracer

__all__ = [
    "DESIGN_TARGETS",
    "OP_TARGETS",
    "SIMULATION_LAYERS",
    "design_layers",
    "layer_metric_names",
    "layer_metrics",
    "op_layers",
]


def _count_results(counters: dict, result) -> None:
    counters["sessions"] = counters.get("sessions", 0) + len(result)


def _count_hits(counters: dict, result) -> None:
    counters["lookups"] = counters.get("lookups", 0) + len(result)
    counters["hits"] = counters.get("hits", 0) + sum(t is not None for t in result)


def _count_epochs(counters: dict, result) -> None:
    counters["epochs"] = counters.get("epochs", 0) + len(result.history)


#: Maya design flow (system identification + controller synthesis).
DESIGN_TARGETS = (
    Target("core.build_maya_design", "repro.defenses.designs", "build_maya_design"),
    Target("control.identify_plant", "repro.core.maya", "identify_plant"),
    Target("control.design_controller", "repro.core.maya", "design_controller"),
)

#: Collection, control, physics, trace store and attacker.
OP_TARGETS = (
    # ``run_sessions`` is imported by name into each caller.
    Target("exec.run_sessions", "repro.attacks.pipeline", "run_sessions", _count_results),
    Target("exec.run_sessions", "repro.experiments.fig14_overheads", "run_sessions",
           _count_results),
    Target("exec.run_sessions", "repro.experiments.common", "run_sessions", _count_results),
    Target("exec.execute_jobs_batched", "repro.exec.engine", "execute_jobs_batched",
           _count_results),
    Target("exec.batch_advance", "repro.exec.batch:BatchedMachine", "advance"),
    Target("exec.job_execute", "repro.exec.jobs:SessionJob", "execute"),
    Target("core.decide_fleet", "repro.core.maya:MayaInstance", "decide_fleet"),
    Target("core.decide", "repro.core.maya:MayaInstance", "decide"),
    Target("control.step", "repro.control.controller:MatrixController", "step"),
    # Imported inside ``MayaInstance.decide_fleet`` at call time.
    Target("masks.next_targets", "repro.masks", "next_targets"),
    Target("machine.quantize", "repro.machine.actuators:ActuatorBank", "quantize_normalized"),
    Target("machine.activity_profile", "repro.machine.machine:SimulatedMachine",
           "activity_profile"),
    Target("machine.advance", "repro.machine.machine:SimulatedMachine", "advance"),
    Target("machine.measure_window", "repro.machine.sensors:RaplSensor", "measure_window"),
    Target("machine.measure_windows", "repro.machine.sensors:BatchedRaplSensor",
           "measure_windows"),
    Target("exec.cache.get_many", "repro.exec.cache:TraceCache", "get_many", _count_hits),
    Target("exec.cache.put_many", "repro.exec.cache:TraceCache", "put_many"),
    Target("attacks.sample_runs", "repro.attacks.pipeline", "sample_runs"),
    Target("attacks.featurize", "repro.attacks.features:TraceFeaturizer", "fit"),
    Target("attacks.featurize", "repro.attacks.features:TraceFeaturizer", "transform"),
    Target("attacks.mlp_fit", "repro.attacks.mlp:MLPClassifier", "fit", _count_epochs),
    Target("attacks.predict", "repro.attacks.mlp:MLPClassifier", "predict"),
)

#: Layers that only run when a session is simulated (not served from the store).
SIMULATION_LAYERS = (
    "exec.execute_jobs_batched", "exec.batch_advance", "exec.job_execute",
    "core.decide_fleet", "core.decide", "control.step", "masks.next_targets",
    "machine.quantize", "machine.activity_profile", "machine.advance",
    "machine.measure_window", "machine.measure_windows",
)


def _unique(names) -> tuple:
    return tuple(dict.fromkeys(names))


def design_layers() -> tuple:
    return _unique(target.layer for target in DESIGN_TARGETS)


def op_layers() -> tuple:
    return _unique(target.layer for target in OP_TARGETS)


#: Derived per-layer metrics: (name, unit, better).
_DERIVED = (
    ("exec.run_sessions.sessions", "count", "lower"),
    ("exec.execute_jobs_batched.sessions", "count", "higher"),
    ("exec.batched_frac", "ratio", "higher"),
    ("exec.cache.hit_ratio", "ratio", "higher"),
    ("attacks.mlp_fit.epochs", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    names = []
    for layer in design_layers() + op_layers():
        names.append((f"{layer}.calls", "count", "lower"))
        names.append((f"{layer}.self_pct", "%", "lower"))
    return names + list(_DERIVED)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    design: Tracer, design_wall_s: float, op: Tracer, op_wall_s: float
) -> dict:
    """Per-layer metrics from a traced set-up and one traced op.

    ``self_pct`` is a layer's self time as a percentage of the wall time
    of the phase it was traced in (the design build, or the op).  The
    trace wall and overhead are added by the caller.
    """
    metrics: dict = {}
    for tracer, names, wall_s in (
        (design, design_layers(), design_wall_s),
        (op, op_layers(), op_wall_s),
    ):
        for name in names:
            layer = tracer.layer(name)
            metrics[f"{name}.calls"] = layer.calls
            metrics[f"{name}.self_pct"] = 100.0 * _ratio(layer.self_s, wall_s)
    collect = op.layer("exec.run_sessions")
    batched = op.layer("exec.execute_jobs_batched").counters.get("sessions", 0)
    serial = op.layer("exec.job_execute").calls
    lookups = op.layer("exec.cache.get_many").counters
    metrics["exec.run_sessions.sessions"] = collect.counters.get("sessions", 0)
    metrics["exec.execute_jobs_batched.sessions"] = batched
    metrics["exec.batched_frac"] = _ratio(batched, batched + serial)
    metrics["exec.cache.hit_ratio"] = _ratio(lookups.get("hits", 0), lookups.get("lookups", 0))
    metrics["attacks.mlp_fit.epochs"] = op.layer("attacks.mlp_fit").counters.get("epochs", 0)
    # Share of collection time that some wrapped layer below it accounts for.
    metrics["trace.coverage"] = _ratio(collect.total_s - collect.self_s, collect.total_s)
    return metrics
