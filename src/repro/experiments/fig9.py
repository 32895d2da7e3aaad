"""Figure 9: throughput (images/s) vs batch size, per ConvNet.

Fixed image size, single A100, batch swept 1…2048 and *beyond device
memory* — the prediction extends past the measured range because the model
is linear in the batch factor (Section 4.3's "simulating larger batch
sizes").  ResNet18 and SqueezeNet must show the most pronounced diminishing
returns at large batches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import format_series
from repro.core.regression import ExtrapolationWarning
from repro.core.scalability import ScalingPoint, batch_scaling_curve
from repro.core.training import TrainingStepModel
from repro.experiments.common import GPU, SEED_EVAL, training_data
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.memory import fits
from repro.hardware.roofline import graph_record
from repro.zoo.registry import get_entry

FIG9_MODELS: tuple[str, ...] = (
    "alexnet",
    "vgg16",
    "resnet18",
    "resnet50",
    "squeezenet1_0",
    "mobilenet_v2",
    "efficientnet_b0",
    "regnet_x_8gf",
)

FIG9_IMAGE = 128
FIG9_BATCHES: tuple[int, ...] = (1, 4, 16, 64, 128, 256, 512, 1024, 2048,
                                 4096, 8192)
FIG9_REPS = 5


@dataclass(frozen=True)
class BatchScalingCurve:
    model: str
    points: tuple[ScalingPoint, ...]

    @property
    def predicted(self) -> list[float]:
        return [p.throughput for p in self.points]

    @property
    def measured(self) -> list[float | None]:
        return [p.measured for p in self.points]

    def saturation_batch(self, fraction: float = 0.8) -> int:
        """Smallest batch reaching ``fraction`` of the curve's asymptote.

        The asymptotic throughput of the linear model is
        ``1 / (per-image marginal time)``; models with a small fixed
        overhead relative to their marginal time saturate early (ResNet18,
        SqueezeNet in the paper).
        """
        asymptote = max(p.throughput for p in self.points)
        for p in sorted(self.points, key=lambda q: q.x):
            if p.throughput >= fraction * asymptote:
                return p.x
        return self.points[-1].x


@dataclass(frozen=True)
class Fig9Result:
    curves: dict[str, BatchScalingCurve]
    batches: tuple[int, ...]
    #: FIT004 extrapolation notes per model: batches whose design rows fall
    #: beyond the fitted feature ranges.  Figure 9 extrapolates on purpose
    #: ("simulating larger batch sizes"); the notes make that explicit.
    domain_notes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def render(self) -> str:
        sections = []
        for model, curve in self.curves.items():
            display = get_entry(model).display
            measured = [
                float("nan") if m is None else m for m in curve.measured
            ]
            sections.append(
                format_series(
                    list(self.batches),
                    {
                        "predicted_img_s": curve.predicted,
                        "measured_img_s": measured,
                    },
                    x_label="batch",
                    value_format=".0f",
                    title=(
                        f"Figure 9 — {display} (image {FIG9_IMAGE}, "
                        "nan = exceeds device memory)"
                    ),
                )
            )
        footer = [
            f"extrapolation [FIT004] {model}: {note}"
            for model, notes in sorted(self.domain_notes.items())
            for note in notes
        ]
        if footer:
            sections.append("\n".join(footer))
        return "\n\n".join(sections)


def run_fig9(
    models: tuple[str, ...] = FIG9_MODELS,
    batches: tuple[int, ...] = FIG9_BATCHES,
) -> Fig9Result:
    fit_data = training_data()
    executor = SimulatedExecutor(GPU, seed=SEED_EVAL)
    curves: dict[str, BatchScalingCurve] = {}
    domain_notes: dict[str, tuple[str, ...]] = {}
    for model in models:
        step_model = TrainingStepModel().fit(fit_data.excluding_model(model))
        record = graph_record("model", model, FIG9_IMAGE)
        profile, features = record.profile, record.features
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ExtrapolationWarning)
            predicted = batch_scaling_curve(step_model, features, batches)
        notes = tuple(
            str(w.message)
            for w in caught
            if issubclass(w.category, ExtrapolationWarning)
        )
        if notes:
            domain_notes[model] = notes
        points = []
        for point in predicted:
            measured = measured_std = None
            if fits(profile, point.per_device_batch, GPU, training=True):
                totals = np.array(
                    [
                        executor.measure_training_step(
                            profile, point.per_device_batch, rep=rep
                        ).total
                        for rep in range(FIG9_REPS)
                    ]
                )
                throughputs = point.per_device_batch / totals
                measured = float(throughputs.mean())
                measured_std = float(throughputs.std())
            points.append(
                ScalingPoint(
                    x=point.x,
                    devices=1,
                    per_device_batch=point.per_device_batch,
                    step_time=point.step_time,
                    throughput=point.throughput,
                    measured=measured,
                    measured_std=measured_std,
                )
            )
        curves[model] = BatchScalingCurve(model=model, points=tuple(points))
    return Fig9Result(
        curves=curves, batches=tuple(batches), domain_notes=domain_notes
    )
