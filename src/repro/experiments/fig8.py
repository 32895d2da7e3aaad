"""Figure 8: throughput (images/s) vs number of nodes, per ConvNet.

Fixed 128×128 images and per-device batch 64 (weak scaling).  For every
model, a training-step model is fitted with that ConvNet held out, its
throughput curve is predicted for 1–8 nodes, and fresh held-out
measurements (with standard deviation across repetitions) provide the
ground-truth curve.  AlexNet's early diminishing return must be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_series
from repro.core.scalability import ScalingPoint, node_scaling_curve, turning_point
from repro.experiments.common import (
    NODE_COUNTS,
    curve_correlation,
    measure_node_curve,
)
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
        curve = self.curves[model]
        return curve_correlation(curve.predicted, curve.measured)

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
    curves = {
        model: ModelScalingCurve(
            model=model,
            points=measure_node_curve(
                node_scaling_curve, model, FIG8_IMAGE, FIG8_BATCH,
                node_counts, FIG8_REPS,
                # Measured throughput, images/s, per repetition.
                lambda point, totals: (
                    point.per_device_batch * point.devices / totals
                ),
            ),
        )
        for model in models
    }
    return Fig8Result(curves=curves, node_counts=tuple(node_counts))


def alexnet_flattens_first(result: Fig8Result) -> bool:
    """The paper's headline observation: AlexNet shows the most prominent
    diminishing return of the predicted curves."""
    speedups = {m: c.speedup() for m, c in result.curves.items()}
    return min(speedups, key=speedups.get) == "alexnet"


def diminishing_return_nodes(result: Fig8Result, model: str) -> int:
    """Node count at which adding nodes stops paying off (predicted)."""
    return turning_point(list(result.curves[model].points)).x
