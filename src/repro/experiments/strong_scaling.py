"""Strong-scaling prediction (Section 4.3 extension).

"Since our prediction works with a variable number of nodes and batch
sizes, we can predict both weak scaling and strong scaling."  The weak
case is Figure 8; this experiment exercises the strong case: the *global*
batch is fixed, so the per-device mini-batch shrinks as nodes are added
and device utilisation falls — scaling efficiency must drop faster than in
the weak case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_series
from repro.core.scalability import ScalingPoint, strong_scaling_curve
from repro.core.training import TrainingStepModel
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer
from repro.experiments.common import (
    GPU,
    GPUS_PER_NODE,
    SEED_EVAL,
    distributed_data,
)
from repro.hardware.roofline import graph_record
from repro.zoo.registry import get_entry

STRONG_MODELS: tuple[str, ...] = ("resnet50", "vgg16", "mobilenet_v2")
STRONG_IMAGE = 128
GLOBAL_BATCH = 1024
NODE_COUNTS: tuple[int, ...] = (1, 2, 4, 8)
REPS = 3


@dataclass(frozen=True)
class StrongScalingCurve:
    model: str
    points: tuple[ScalingPoint, ...]

    @property
    def predicted_step_times(self) -> list[float]:
        return [p.step_time for p in self.points]

    @property
    def measured_step_times(self) -> list[float]:
        return [p.measured for p in self.points]

    def speedup(self) -> float:
        """Predicted step-time speedup from fewest to most nodes."""
        return self.points[0].step_time / self.points[-1].step_time


@dataclass(frozen=True)
class StrongScalingResult:
    curves: dict[str, StrongScalingCurve]
    node_counts: tuple[int, ...]

    def trend_agreement(self, model: str) -> float:
        curve = self.curves[model]
        pred = np.array(curve.predicted_step_times)
        meas = np.array(curve.measured_step_times)
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
                        "pred_step_ms": [
                            t * 1e3 for t in curve.predicted_step_times
                        ],
                        "meas_step_ms": [
                            t * 1e3 for t in curve.measured_step_times
                        ],
                    },
                    x_label="nodes",
                    value_format=".1f",
                    title=(
                        f"Strong scaling — {display} (global batch "
                        f"{GLOBAL_BATCH}, image {STRONG_IMAGE})"
                    ),
                )
            )
        return "\n\n".join(sections)


def run_strong_scaling(
    models: tuple[str, ...] = STRONG_MODELS,
    node_counts: tuple[int, ...] = NODE_COUNTS,
    global_batch: int = GLOBAL_BATCH,
) -> StrongScalingResult:
    fit_data = distributed_data()
    curves: dict[str, StrongScalingCurve] = {}
    for model in models:
        step_model = TrainingStepModel().fit(fit_data.excluding_model(model))
        record = graph_record("model", model, STRONG_IMAGE)
        profile, features = record.profile, record.features
        predicted = strong_scaling_curve(
            step_model, features, global_batch, node_counts, GPUS_PER_NODE
        )
        points = []
        for point in predicted:
            cluster = ClusterSpec(
                nodes=point.x, gpus_per_node=GPUS_PER_NODE, device=GPU
            )
            trainer = DistributedTrainer(cluster, seed=SEED_EVAL)
            totals = np.array(
                [
                    trainer.measure_step(
                        profile,
                        point.per_device_batch,
                        rep=rep,
                        enforce_memory=False,
                    ).total
                    for rep in range(REPS)
                ]
            )
            points.append(
                ScalingPoint(
                    x=point.x,
                    devices=point.devices,
                    per_device_batch=point.per_device_batch,
                    step_time=point.step_time,
                    throughput=point.throughput,
                    measured=float(totals.mean()),
                    measured_std=float(totals.std()),
                )
            )
        curves[model] = StrongScalingCurve(model=model, points=tuple(points))
    return StrongScalingResult(curves=curves, node_counts=tuple(node_counts))


if __name__ == "__main__":  # pragma: no cover
    print(run_strong_scaling().render())
