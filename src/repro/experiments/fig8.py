"""Figure 8: throughput (images/s) vs number of nodes, per ConvNet.

Fixed 128×128 images and per-device batch 64 (weak scaling).  For every
model, a training-step model is fitted with that ConvNet held out, its
throughput curve is predicted for 1–8 nodes, and fresh held-out
measurements (with standard deviation across repetitions) provide the
ground-truth curve.  AlexNet's early diminishing return must be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_series
from repro.core.scalability import ScalingPoint, node_scaling_curve, turning_point
from repro.core.training import TrainingStepModel
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer
from repro.experiments.common import (
    GPU,
    GPUS_PER_NODE,
    NODE_COUNTS,
    SEED_EVAL,
    distributed_data,
)
from repro.hardware.roofline import graph_record
from repro.zoo.registry import get_entry

#: The eight ConvNets of the paper's scaling figure.
FIG8_MODELS: tuple[str, ...] = (
    "alexnet",
    "vgg16",
    "resnet18",
    "resnet50",
    "wide_resnet50_2",
    "squeezenet1_0",
    "mobilenet_v2",
    "efficientnet_b0",
)

FIG8_IMAGE = 128
FIG8_BATCH = 64
FIG8_REPS = 5


@dataclass(frozen=True)
class ModelScalingCurve:
    model: str
    points: tuple[ScalingPoint, ...]

    @property
    def predicted(self) -> list[float]:
        return [p.throughput for p in self.points]

    @property
    def measured(self) -> list[float]:
        return [p.measured for p in self.points]

    @property
    def measured_std(self) -> list[float]:
        return [p.measured_std for p in self.points]

    def speedup(self) -> float:
        """Predicted throughput gain from the smallest to largest node count."""
        return self.points[-1].throughput / self.points[0].throughput


@dataclass(frozen=True)
class Fig8Result:
    curves: dict[str, ModelScalingCurve]
    node_counts: tuple[int, ...]

    def trend_agreement(self, model: str) -> float:
        """Pearson correlation between predicted and measured curves."""
        curve = self.curves[model]
        pred = np.array(curve.predicted)
        meas = np.array(curve.measured)
        if np.std(pred) == 0 or np.std(meas) == 0:
            return 0.0
        return float(np.corrcoef(pred, meas)[0, 1])

    def render(self) -> str:
        sections = []
        for model, curve in self.curves.items():
            display = get_entry(model).display
            sections.append(
                format_series(
                    list(self.node_counts),
                    {
                        "predicted_img_s": curve.predicted,
                        "measured_img_s": curve.measured,
                        "measured_std": curve.measured_std,
                    },
                    x_label="nodes",
                    value_format=".0f",
                    title=f"Figure 8 — {display} (image {FIG8_IMAGE}, "
                    f"batch {FIG8_BATCH}/device)",
                )
            )
        return "\n\n".join(sections)


def run_fig8(
    models: tuple[str, ...] = FIG8_MODELS,
    node_counts: tuple[int, ...] = NODE_COUNTS,
) -> Fig8Result:
    fit_data = distributed_data()
    curves: dict[str, ModelScalingCurve] = {}
    for model in models:
        step_model = TrainingStepModel().fit(fit_data.excluding_model(model))
        record = graph_record("model", model, FIG8_IMAGE)
        profile, features = record.profile, record.features
        predicted = node_scaling_curve(
            step_model, features, FIG8_BATCH, node_counts, GPUS_PER_NODE
        )
        points = []
        for point in predicted:
            cluster = ClusterSpec(
                nodes=point.x, gpus_per_node=GPUS_PER_NODE, device=GPU
            )
            trainer = DistributedTrainer(cluster, seed=SEED_EVAL)
            totals = np.array(
                [
                    trainer.measure_step(profile, FIG8_BATCH, rep=rep).total
                    for rep in range(FIG8_REPS)
                ]
            )
            throughputs = FIG8_BATCH * cluster.total_devices / totals
            points.append(
                ScalingPoint(
                    x=point.x,
                    devices=point.devices,
                    per_device_batch=point.per_device_batch,
                    step_time=point.step_time,
                    throughput=point.throughput,
                    measured=float(throughputs.mean()),
                    measured_std=float(throughputs.std()),
                )
            )
        curves[model] = ModelScalingCurve(model=model, points=tuple(points))
    return Fig8Result(curves=curves, node_counts=tuple(node_counts))


def alexnet_flattens_first(result: Fig8Result) -> bool:
    """The paper's headline observation: AlexNet shows the most prominent
    diminishing return of the predicted curves."""
    speedups = {m: c.speedup() for m, c in result.curves.items()}
    return min(speedups, key=speedups.get) == "alexnet"


def diminishing_return_nodes(result: Fig8Result, model: str) -> int:
    """Node count at which adding nodes stops paying off (predicted)."""
    return turning_point(list(result.curves[model].points)).x


if __name__ == "__main__":  # pragma: no cover
    print(run_fig8().render())
