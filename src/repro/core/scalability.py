"""Scalability analysis (Section 4.3).

Turns a fitted :class:`~repro.core.training.TrainingStepModel` into
throughput-versus-nodes (Figure 8) and throughput-versus-batch-size
(Figure 9) curves, finds the diminishing-return turning point, and supports
both weak scaling (fixed per-device batch) and strong scaling (fixed global
batch) — predictions extend beyond the measured range, including batch
sizes that would exceed device memory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.benchdata.records import ConvNetFeatures
from repro.core.epoch import throughput as _throughput
from repro.core.features import combined_bwd_grad_row, forward_row
from repro.core.regression import ExtrapolationWarning
from repro.core.training import TrainingStepModel

#: Default FIT004 extrapolation-domain multiple for scaling curves; pass
#: ``domain_factor=None`` to a curve function to silence the check.
DEFAULT_DOMAIN_FACTOR = 10.0


def _warn_extrapolation(
    model: TrainingStepModel,
    features: ConvNetFeatures,
    configs: Sequence[tuple[int, int, int]],
    factor: float | None,
) -> None:
    """Emit one :class:`ExtrapolationWarning` when a curve queries the
    fitted models beyond ``factor``× their fitted feature ranges.

    ``configs`` is the swept ``(batch, devices, nodes)`` set.  Scaling
    curves are ConvMeter's headline extrapolation surface (Figures 8/9
    predict past device memory and past the measured cluster), so the
    check warns — it never blocks — and aggregates the whole sweep into a
    single warning naming the worst violation (audit rule FIT004).
    """
    if factor is None or not configs:
        return
    violations = []
    fwd_rows = np.empty(
        (len(configs), len(model.forward.metric_names) + 1)
    )
    for i, (b, _, _) in enumerate(configs):
        fwd_rows[i] = forward_row(features, b, model.forward.metric_names)
    violations += model.forward.model.domain_violations(fwd_rows, factor)
    single = [
        model.bwd_grad._single_row(features, b)
        for b, _, n in configs
        if n == 1
    ]
    if single and model.bwd_grad.single.is_fitted:
        violations += model.bwd_grad.single.domain_violations(
            np.array(single), factor
        )
    multi = [
        combined_bwd_grad_row(features, b, d)
        for b, d, n in configs
        if n > 1
    ]
    if multi and model.bwd_grad.multi.is_fitted:
        violations += model.bwd_grad.multi.domain_violations(
            np.array(multi), factor
        )
    if violations:
        worst = max(violations, key=lambda v: v.excess)
        # Statically reachable from server threads via answer_request ->
        # _scaling_prediction, but the serve path always passes
        # domain_factor=None, which returns at the top of this function
        # before any warning; per-response warnings travel through the
        # thread-safe prediction_warnings list instead.
        warnings.warn(  # repro-lint: disable=CON006
            f"scaling curve extrapolates beyond {factor:g}x the fitted "
            f"range on {len(violations)} feature(s); worst: "
            f"{worst.describe()} (audit rule FIT004)",
            ExtrapolationWarning,
            # Skip this function, _curve and the public curve function:
            # the warning names the public function's caller.
            stacklevel=4,
        )


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scalability curve."""

    #: Sweep coordinate: node count (Fig. 8) or global batch size (Fig. 9).
    x: int
    #: Total computing devices at this point.
    devices: int
    #: Per-device mini-batch size.
    per_device_batch: int
    #: Predicted step time, seconds.
    step_time: float
    #: Predicted throughput, images/second.
    throughput: float
    #: Measured throughput (if available) and its standard deviation.
    measured: float | None = None
    measured_std: float | None = None


def _curve(
    model: TrainingStepModel,
    features: ConvNetFeatures,
    configs: Sequence[tuple[int, int, int]],
    xs: Sequence[int],
    domain_factor: float | None,
) -> list[ScalingPoint]:
    """The shared tail of the curve functions: FIT004 check, one batched
    prediction over the ``(batch, devices, nodes)`` configs, and one
    :class:`ScalingPoint` per config at sweep coordinate ``xs[i]``."""
    _warn_extrapolation(model, features, configs, domain_factor)
    totals = model.predict_configs(features, configs)
    return [
        ScalingPoint(
            x=x,
            devices=devices,
            per_device_batch=batch,
            step_time=step_time,
            throughput=_throughput(step_time, batch, devices),
        )
        for x, (batch, devices, _), step_time in zip(
            xs, configs, totals.tolist()
        )
    ]


def node_scaling_curve(
    model: TrainingStepModel,
    features: ConvNetFeatures,
    per_device_batch: int,
    node_counts: Sequence[int],
    gpus_per_node: int = 4,
    domain_factor: float | None = DEFAULT_DOMAIN_FACTOR,
) -> list[ScalingPoint]:
    """Weak-scaling throughput prediction across node counts (Figure 8)."""
    configs = [
        (per_device_batch, n * gpus_per_node, n) for n in node_counts
    ]
    return _curve(model, features, configs, node_counts, domain_factor)


def strong_scaling_curve(
    model: TrainingStepModel,
    features: ConvNetFeatures,
    global_batch: int,
    node_counts: Sequence[int],
    gpus_per_node: int = 4,
    domain_factor: float | None = DEFAULT_DOMAIN_FACTOR,
) -> list[ScalingPoint]:
    """Strong-scaling prediction: the global batch stays fixed, so the
    per-device mini-batch shrinks as devices are added."""
    configs = []
    for nodes in node_counts:
        devices = nodes * gpus_per_node
        if global_batch % devices:
            raise ValueError(
                f"global batch {global_batch} not divisible by {devices} "
                "devices"
            )
        configs.append((global_batch // devices, devices, nodes))
    return _curve(model, features, configs, node_counts, domain_factor)


def batch_scaling_curve(
    model: TrainingStepModel,
    features: ConvNetFeatures,
    batch_sizes: Sequence[int],
    devices: int = 1,
    domain_factor: float | None = DEFAULT_DOMAIN_FACTOR,
) -> list[ScalingPoint]:
    """Throughput prediction across batch sizes (Figure 9).

    Works for any batch size — including ones beyond device memory, the
    paper's "simulating larger batch sizes" use case — because the model is
    linear in the batch factor, not bound by a measured grid.  Queries
    beyond ``domain_factor``× the fitted range raise an
    :class:`ExtrapolationWarning` (audit rule FIT004) but still predict.
    """
    configs = [(b, devices, 1) for b in batch_sizes]
    xs = [b * devices for b in batch_sizes]
    return _curve(model, features, configs, xs, domain_factor)


def turning_point(
    points: Sequence[ScalingPoint], min_gain: float = 1.25
) -> ScalingPoint:
    """The diminishing-return point of a scaling curve.

    Returns the first point after which doubling the sweep coordinate stops
    improving throughput by at least ``min_gain``×; if the curve keeps
    scaling, returns the last point.
    """
    if not points:
        raise ValueError("empty scaling curve")
    ordered = sorted(points, key=lambda p: p.x)
    for prev, nxt in zip(ordered, ordered[1:]):
        growth = nxt.x / prev.x
        gain = nxt.throughput / prev.throughput
        # Normalise the gain to a per-doubling rate.
        per_doubling = gain ** (1.0 / np.log2(growth)) if growth > 1 else gain
        if per_doubling < min_gain:
            return prev
    return ordered[-1]


def efficiency(points: Sequence[ScalingPoint]) -> list[float]:
    """Parallel efficiency relative to the first point of the curve."""
    if not points:
        raise ValueError("empty scaling curve")
    ordered = sorted(points, key=lambda p: p.devices)
    base = ordered[0]
    base_per_device = base.throughput / base.devices
    return [
        (p.throughput / p.devices) / base_per_device for p in ordered
    ]
