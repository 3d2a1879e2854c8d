"""The benchmark's workloads: one op is one regeneration of a paper figure.

An experiment object wraps one figure's public entry point and knows how
to check its result, digest it, set it beside the paper's numbers, and
build a small group of its sessions for the byte-identity oracle.  A
:class:`Workload` pairs an experiment with how the op is served (simulated,
or replayed from a warm trace store) and with the prediction its traced
run should confirm.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.attacks.mlp import MLPConfig
from repro.attacks.pipeline import scenario_jobs
from repro.exec import SessionJob
from repro.experiments import fig06_app_detection, fig14_overheads
from repro.experiments.common import attack_scenario, experiment_apps, make_factory
from repro.experiments.config import ExperimentScale, get_scale
from repro.machine import SYS1

from .layers import SIMULATION_LAYERS

__all__ = ["REPLAY_SCALE", "Fig06", "Fig14", "TraceTap", "Workload", "WORKLOADS"]

#: Session length of the Fig. 14 oracle group (its own jobs run to completion).
ORACLE_DURATION_S = 4.0

#: Attacker sampling interval and split shares used by every attack here.
_SAMPLE_INTERVAL_S = 0.020
_TRAIN_FRAC = 0.6
_VAL_FRAC = 0.2


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


class TraceTap:
    """Summarizes the traces an op's collection returns, then lets them go.

    The summary is taken inside the collection call so the op holds no
    extra trace in memory; it costs one finiteness pass over each trace.
    """

    def __init__(self) -> None:
        self.sessions = 0
        self.sim_s = 0.0
        self.problems: list = []
        self.durations: set = set()

    def observe(self, traces) -> None:
        for trace in traces:
            self.sessions += 1
            self.sim_s += trace.duration_s
            self.durations.add(round(trace.duration_s, 9))
            n_intervals = trace.n_intervals
            ticks = int(round(trace.interval_s / trace.tick_s)) * n_intervals
            if (
                trace.power_w.shape != (ticks,)
                or trace.target_w.shape != (n_intervals,)
                or trace.settings.shape != (n_intervals, 3)
            ):
                self.problems.append(f"{trace.workload}/{trace.defense}: bad shape")
            elif not (
                np.isfinite(trace.power_w).all()
                and np.isfinite(trace.measured_w).all()
                and np.isfinite(trace.settings).all()
            ):
                self.problems.append(f"{trace.workload}/{trace.defense}: non-finite values")

    def wrapper(self, target, fn):
        def tapped(*args, **kwargs):
            traces = fn(*args, **kwargs)
            self.observe(traces)
            return traces

        return tapped


class _Experiment:
    """One figure's public entry point, at one scale."""

    #: The ``repro.experiments`` module of the figure.
    module = None
    #: Modules whose ``run_sessions`` return the op's traces.
    collect_owners: tuple = ()

    def __init__(self, scale: "str | ExperimentScale") -> None:
        self.scale = get_scale(scale)
        self.apps = experiment_apps(self.scale)
        self.defenses = self.module.DEFENSES

    def factory(self, seed: int):
        """A ``DefenseFactory`` with every Maya design of the figure built."""
        factory = make_factory(SYS1, self.scale, seed=seed)
        for defense in self.defenses:
            factory.create(defense)
        return factory

    def run(self, factory, seed: int):
        return self.module.run(scale=self.scale, seed=seed, factory=factory)


class Fig06(_Experiment):
    """Fig. 6: application detection under three defenses (attack 1)."""

    module = fig06_app_detection
    collect_owners = ("repro.attacks.pipeline",)

    @property
    def sessions(self) -> int:
        return len(self.defenses) * len(self.apps) * self.scale.runs_per_class

    def expected_n_test(self) -> int:
        """Held-out segments per attack, from the scale alone."""
        scale = self.scale
        runs = scale.runs_per_class
        n_train = min(max(round(_TRAIN_FRAC * runs), 1), runs - 2)
        n_val = max(round(_VAL_FRAC * runs), 1)
        test_runs = max(runs - n_train - n_val, 1)
        samples = int(round(scale.duration_s / _SAMPLE_INTERVAL_S))
        segment = int(round(scale.segment_duration_s / _SAMPLE_INTERVAL_S))
        stride = int(round(scale.segment_stride_s / _SAMPLE_INTERVAL_S))
        return len(self.apps) * test_runs * ((samples - segment) // stride + 1)

    def check(self, result, tap: TraceTap) -> list:
        errors = list(tap.problems)
        if tap.sessions != self.sessions:
            errors.append(f"collected {tap.sessions} sessions, expected {self.sessions}")
        if tap.durations - {round(self.scale.duration_s, 9)}:
            errors.append(f"trace durations {sorted(tap.durations)} != {self.scale.duration_s}")
        n_test = self.expected_n_test()
        if tuple(result.outcomes) != tuple(self.defenses):
            errors.append(f"outcomes for {tuple(result.outcomes)}")
        for name, outcome in result.outcomes.items():
            accuracy = outcome.average_accuracy
            if not (math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0):
                errors.append(f"{name}: accuracy {accuracy} outside [0, 1]")
            if outcome.n_test != n_test:
                errors.append(f"{name}: n_test {outcome.n_test}, expected {n_test}")
        return errors

    def digest(self, result) -> str:
        parts = []
        for name, outcome in result.outcomes.items():
            matrix = np.ascontiguousarray(outcome.result.matrix, dtype=np.float64)
            parts += [name, outcome.n_train, outcome.n_val, outcome.n_test, matrix.tobytes()]
        return _sha(parts)

    def versus_paper(self, result) -> dict:
        paper = fig06_app_detection.PAPER_ACCURACY
        return {
            name: {
                "accuracy": accuracy,
                "paper": paper[name],
                "abs_gap": abs(accuracy - paper[name]),
            }
            for name, accuracy in result.accuracies.items()
        }

    def oracle_jobs(self, factory, seed: int) -> list:
        """Run 0 of every app under Maya GS: jobs the op itself simulates."""
        scenario = attack_scenario(
            name="fig6", spec=SYS1, class_workloads=self.apps, defense=self.defenses[-1],
            scale=self.scale, seed=seed, pool=20,
        )
        jobs = scenario_jobs(scenario, factory)
        return jobs[:: self.scale.runs_per_class]


class Fig14(_Experiment):
    """Fig. 14: power and time overheads, every app run to completion."""

    module = fig14_overheads
    collect_owners = ("repro.experiments.fig14_overheads",)

    @property
    def sessions(self) -> int:
        return len(self.apps) * (1 + len(self.defenses))

    def check(self, result, tap: TraceTap) -> list:
        errors = list(tap.problems)
        if tap.sessions != self.sessions:
            errors.append(f"collected {tap.sessions} sessions, expected {self.sessions}")
        for table in (result.power_ratio, result.time_ratio):
            if tuple(table) != tuple(self.defenses):
                errors.append(f"ratios for {tuple(table)}")
            for name, per_app in table.items():
                if tuple(per_app) != tuple(self.apps):
                    errors.append(f"{name}: ratios for {tuple(per_app)}")
                for app, ratio in per_app.items():
                    if not (math.isfinite(ratio) and ratio > 0.0):
                        errors.append(f"{name}/{app}: ratio {ratio}")
        return errors

    def digest(self, result) -> str:
        parts = []
        for table in (result.power_ratio, result.time_ratio):
            for name, per_app in table.items():
                parts += [name, sorted(per_app.items())]
        parts += [sorted(result.baseline_power_w.items()), sorted(result.baseline_time_s.items())]
        return _sha(parts)

    def versus_paper(self, result) -> dict:
        rows = {}
        for name in result.power_ratio:
            power = result.mean_power_ratio(name)
            time = result.mean_time_ratio(name)
            paper_power = fig14_overheads.PAPER_POWER[name]
            paper_time = fig14_overheads.PAPER_TIME[name]
            rows[name] = {
                "power": power, "paper_power": paper_power,
                "power_abs_gap": abs(power - paper_power),
                "time": time, "paper_time": paper_time,
                "time_abs_gap": abs(time - paper_time),
            }
        return rows

    def oracle_jobs(self, factory, seed: int) -> list:
        """One fixed-length session per design, cycling through the apps.

        The op's own sessions run to completion, which the lock-step
        backend does not batch; fixed-length sessions of the same designs
        and apps do.
        """
        designs = ("baseline",) + tuple(self.defenses)
        return [
            SessionJob.for_factory(
                factory, spec=SYS1, workload=self.apps[index % len(self.apps)],
                defense=design, seed=seed, run_id=("expbench-oracle", design),
                duration_s=ORACLE_DURATION_S,
            )
            for index, design in enumerate(designs)
        ]


def _smoke_prediction(metrics: dict, self_s: dict) -> dict:
    hot = sum(self_s[name] for name in ("control.step", "machine.quantize",
                                         "machine.activity_profile"))
    share = hot / self_s["exec.run_sessions.total"] if self_s["exec.run_sessions.total"] else 0.0
    return {
        "claim": "control.step + machine.quantize + machine.activity_profile self time "
                 "is the majority of exec.run_sessions",
        "share": share,
        "holds": share > 0.5,
    }


def _serial_prediction(metrics: dict, self_s: dict) -> dict:
    calls = metrics["exec.execute_jobs_batched.calls"]
    return {"claim": "exec.execute_jobs_batched.calls is 0", "calls": calls, "holds": calls == 0}


def _replay_prediction(metrics: dict, self_s: dict) -> dict:
    simulated = {name: metrics[f"{name}.calls"] for name in SIMULATION_LAYERS}
    hit_ratio = metrics["exec.cache.hit_ratio"]
    return {
        "claim": "exec.cache.hit_ratio is 1.0 and no simulation layer is called",
        "hit_ratio": hit_ratio,
        "simulation_calls": sum(simulated.values()),
        "holds": hit_ratio == 1.0 and not any(simulated.values()),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: "Fig06 | Fig14"
    #: Serve every op from a trace store filled during set-up.
    replay: bool
    #: What the traced run should show: ``prediction(metrics, self_s)``.
    prediction: object


#: Smoke scale with the attacker's epoch budget set to its early-stopping
#: patience, so no fit can stop early and every op trains the same number
#: of epochs.  At ``smoke``'s budget, early stopping ends the three fits
#: after 44 to 81 epochs in total depending on the seed, which moved the
#: replay op's wall time by -25%/+15% across seeds (the training is half of
#: a warm op) and hid a store or attacker change in seed noise.  The
#: sessions, and so the store, are exactly those of ``smoke``.
REPLAY_SCALE = replace(
    get_scale("smoke"), name="smoke-fixed-epochs", mlp_epochs=MLPConfig().patience
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fig06-smoke", Fig06("smoke"), False, _smoke_prediction),
        Workload("fig14-default", Fig14("default"), False, _serial_prediction),
        Workload("fig06-replay", Fig06(REPLAY_SCALE), True, _replay_prediction),
    )
}
