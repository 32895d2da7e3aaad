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

from repro.analysis.tables import format_series
from repro.core.scalability import ScalingPoint, strong_scaling_curve
from repro.experiments.common import (
    NODE_COUNTS,
    curve_correlation,
    measure_node_curve,
)
from repro.zoo.registry import get_entry

STRONG_MODELS: tuple[str, ...] = ("resnet50", "vgg16", "mobilenet_v2")
STRONG_IMAGE = 128
GLOBAL_BATCH = 1024
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
        return curve_correlation(
            curve.predicted_step_times, curve.measured_step_times
        )

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
    curves = {
        model: StrongScalingCurve(
            model=model,
            points=measure_node_curve(
                strong_scaling_curve, model, STRONG_IMAGE, global_batch,
                node_counts, REPS,
                # Measured step time, seconds, per repetition.
                lambda point, totals: totals,
            ),
        )
        for model in models
    }
    return StrongScalingResult(curves=curves, node_counts=tuple(node_counts))
