"""End-to-end ML power attacks (Table IV / Section VI).

The pipeline mirrors the paper's attacker exactly:

1. *Collect*: run each victim workload many times under the deployed
   defense (the attacker adapts: training data is gathered with the defense
   on), recording power through a sensor (RAPL counters or the AC outlet).
2. *Featurize*: segment traces; either 5-sample averaging + 10-level
   quantization + one-hot (applications, videos) or FFT magnitudes
   (webpages).
3. *Train*: a ReLU MLP with log-softmax output on 60% of the runs,
   validated on 20%, tested on the held-out 20%.
4. *Report*: row-normalized confusion matrix and average accuracy.

Splits are by *run*, never by segment, so segments of one execution can
never leak between train and test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import telemetry
from ..defenses.designs import DefenseFactory
from ..exec import SessionJob, record_run, run_sessions
from ..machine import OutletMeter, PlatformSpec, RaplSensor, Trace, spawn
from .features import FeatureConfig, TraceFeaturizer, segment_trace
from .metrics import ConfusionResult, confusion_matrix
from .mlp import MLPClassifier, MLPConfig

__all__ = [
    "AttackScenario",
    "AttackOutcome",
    "scenario_jobs",
    "simulate_runs",
    "sample_runs",
    "train_and_evaluate",
    "run_attack",
]


@dataclass(frozen=True)
class AttackScenario:
    """Full description of one ML attack experiment."""

    name: str
    spec: PlatformSpec
    #: Workload registry names, in label order.
    class_workloads: tuple[str, ...]
    #: Table V design the victim deploys.
    defense: str
    runs_per_class: int = 24
    duration_s: float = 20.0
    #: "rapl" (attacks 1 and 2) or "outlet" (attack 3).
    sensor: str = "rapl"
    #: Attacker's sampling interval (RAPL mode; the outlet meter is fixed
    #: at 50 ms by the AC frequency).
    sample_interval_s: float = 0.020
    #: Wall-clock length and stride of the classified segments.
    segment_duration_s: float = 10.0
    segment_stride_s: float = 5.0
    feature_mode: str = "onehot"
    pool: int = 5
    n_levels: int = 10
    fft_bins: int = 64
    mlp: MLPConfig = field(default_factory=MLPConfig)
    seed: int = 0
    train_frac: float = 0.6
    val_frac: float = 0.2

    def __post_init__(self) -> None:
        if self.sensor not in ("rapl", "outlet"):
            raise ValueError("sensor must be 'rapl' or 'outlet'")
        if len(self.class_workloads) < 2:
            raise ValueError("an attack needs at least two classes")
        if not 0 < self.train_frac + self.val_frac < 1:
            raise ValueError("train_frac + val_frac must leave a test share")

    @property
    def effective_interval_s(self) -> float:
        if self.sensor == "outlet":
            return OutletMeter.CYCLES_PER_SAMPLE / OutletMeter.AC_FREQUENCY_HZ
        return self.sample_interval_s

    def feature_config(self) -> FeatureConfig:
        segment_len = max(int(round(self.segment_duration_s / self.effective_interval_s)), 2)
        return FeatureConfig(
            mode=self.feature_mode,
            segment_len=segment_len,
            pool=self.pool,
            n_levels=self.n_levels,
            fft_bins=self.fft_bins,
        )

    @property
    def segment_stride(self) -> int:
        return max(int(round(self.segment_stride_s / self.effective_interval_s)), 1)


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack: the paper's confusion matrix plus context."""

    scenario: AttackScenario
    result: ConfusionResult
    n_train: int
    n_val: int
    n_test: int

    @property
    def average_accuracy(self) -> float:
        return self.result.average_accuracy

    @property
    def chance_accuracy(self) -> float:
        return self.result.chance_accuracy


def scenario_jobs(
    scenario: AttackScenario, factory: DefenseFactory
) -> list[SessionJob]:
    """The declarative session jobs behind one scenario's collection.

    In label-major, run-minor order — the order :func:`simulate_runs`
    reshapes back into the paper's ``classes x runs`` nesting.  Exposed so
    tooling (the bench's backend-selection probe, job-count accounting) can
    reason about the same job list the pipeline executes.
    """
    return [
        SessionJob.for_factory(
            factory,
            spec=scenario.spec,
            workload=workload_name,
            defense=scenario.defense,
            seed=scenario.seed,
            run_id=(scenario.name, scenario.defense, workload_name, run),
            duration_s=scenario.duration_s,
        )
        for workload_name in scenario.class_workloads
        for run in range(scenario.runs_per_class)
    ]


def simulate_runs(
    scenario: AttackScenario,
    factory: DefenseFactory,
    cache: object = None,
    backend: object = None,
) -> list[list[Trace]]:
    """Record ``runs_per_class`` executions of every class under the defense.

    Every ``(class, run)`` session is an independent declarative job, so
    the whole collection fans out through :func:`repro.exec.run_sessions`
    (the lock-step ``backend="batch"`` under ``auto``, optional
    content-addressed trace cache) and is reshaped back to the paper's
    ``classes x runs`` nesting — in the same order, with bit-identical
    traces, as the serial loop this replaces.
    """
    jobs = scenario_jobs(scenario, factory)
    telemetry.ops(
        "pipeline.collect",
        scenario=scenario.name,
        defense=scenario.defense,
        classes=len(scenario.class_workloads),
        runs_per_class=scenario.runs_per_class,
    )
    traces = run_sessions(jobs, cache=cache, factory=factory, backend=backend)
    per_class = scenario.runs_per_class
    return [
        traces[label * per_class:(label + 1) * per_class]
        for label in range(len(scenario.class_workloads))
    ]


def sample_runs(
    scenario: AttackScenario, runs: list[list[Trace]]
) -> list[list[np.ndarray]]:
    """Resample recorded traces through the attacker's sensor."""
    sampled: list[list[np.ndarray]] = []
    for label, class_runs in enumerate(runs):
        class_samples = []
        for run_index, trace in enumerate(class_runs):
            rng = spawn(scenario.seed, "attacker-sensor", scenario.name, label, run_index)
            if scenario.sensor == "outlet":
                meter = OutletMeter(scenario.spec, rng)
                series = meter.sample_trace(trace.power_w, trace.tick_s)
            else:
                sensor = RaplSensor(scenario.spec, rng)
                series = sensor.sample_trace(
                    trace.power_w, trace.tick_s, scenario.sample_interval_s
                )
            class_samples.append(series)
        sampled.append(class_samples)
    return sampled


def _split_runs(
    n_runs: int, train_frac: float, val_frac: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = rng.permutation(n_runs)
    n_train = max(int(round(train_frac * n_runs)), 1)
    n_val = max(int(round(val_frac * n_runs)), 1)
    n_train = min(n_train, n_runs - 2)
    train = order[:n_train]
    val = order[n_train:n_train + n_val]
    test = order[n_train + n_val:]
    if test.size == 0:
        test = val[-1:]
        val = val[:-1]
    return train, val, test


def train_and_evaluate(
    scenario: AttackScenario, sampled: list[list[np.ndarray]]
) -> AttackOutcome:
    """Featurize, train the MLP, and evaluate on held-out runs."""
    feature_config = scenario.feature_config()
    stride = scenario.segment_stride
    rng = spawn(scenario.seed, "attack-split", scenario.name, scenario.defense)

    buckets = {"train": ([], []), "val": ([], []), "test": ([], [])}
    for label, class_samples in enumerate(sampled):
        train_idx, val_idx, test_idx = _split_runs(
            len(class_samples), scenario.train_frac, scenario.val_frac, rng
        )
        # Per-fold span: how each label's runs were split (run-level, so a
        # leaky segment-level split would be visible in the ops stream).
        telemetry.ops(
            "pipeline.fold",
            scenario=scenario.name,
            label=label,
            train=int(train_idx.size),
            val=int(val_idx.size),
            test=int(test_idx.size),
        )
        for bucket, indices in (("train", train_idx), ("val", val_idx), ("test", test_idx)):
            for run_index in indices:
                segments = segment_trace(
                    class_samples[run_index], feature_config.segment_len, stride
                )
                buckets[bucket][0].append(segments)
                buckets[bucket][1].extend([label] * segments.shape[0])

    data = {
        bucket: (np.vstack(segs), np.asarray(labels, dtype=int))
        for bucket, (segs, labels) in buckets.items()
    }

    featurizer = TraceFeaturizer(feature_config).fit(data["train"][0])
    x_train = featurizer.transform(data["train"][0])
    x_val = featurizer.transform(data["val"][0])
    x_test = featurizer.transform(data["test"][0])
    y_train, y_val, y_test = (data[b][1] for b in ("train", "val", "test"))

    telemetry.ops(
        "pipeline.train",
        scenario=scenario.name,
        n_train=int(y_train.size),
        n_val=int(y_val.size),
        n_features=int(x_train.shape[1]),
    )
    mlp_config = replace(scenario.mlp, seed=scenario.mlp.seed + scenario.seed)
    classifier = MLPClassifier(
        x_train.shape[1], len(scenario.class_workloads), mlp_config
    )
    classifier.fit(x_train, y_train, x_val, y_val)

    matrix = confusion_matrix(
        y_test, classifier.predict(x_test), len(scenario.class_workloads)
    )
    result = ConfusionResult(matrix, tuple(scenario.class_workloads))
    telemetry.ops(
        "pipeline.eval",
        scenario=scenario.name,
        n_test=int(y_test.size),
        average_accuracy=float(result.average_accuracy),
    )
    telemetry.count("attacks.pipeline.evaluations")
    return AttackOutcome(
        scenario=scenario,
        result=result,
        n_train=y_train.size,
        n_val=y_val.size,
        n_test=y_test.size,
    )


def run_attack(
    scenario: AttackScenario,
    factory: DefenseFactory,
    cache: object = None,
    backend: object = None,
) -> AttackOutcome:
    """The full pipeline: simulate, sample, train, evaluate.

    ``cache`` and ``backend`` reach the trace-collection phase
    only; the sensor sampling and training stages are deterministic
    functions of the collected traces, so a cached or batched re-run
    reproduces the identical outcome.
    """
    runs = simulate_runs(scenario, factory, cache=cache, backend=backend)
    sampled = sample_runs(scenario, runs)
    outcome = train_and_evaluate(scenario, sampled)
    # Bind the outcome to its inputs in the run registry (no-op unless
    # REPRO_REGISTRY is on).
    record_run(
        kind="attack",
        name=scenario.name,
        jobs=scenario_jobs(scenario, factory),
        results={
            "average_accuracy": outcome.average_accuracy,
            "chance_accuracy": outcome.chance_accuracy,
            "n_train": outcome.n_train,
            "n_val": outcome.n_val,
            "n_test": outcome.n_test,
        },
    )
    return outcome
