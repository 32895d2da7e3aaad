"""Design-matrix construction from timing records.

Encodes the paper's performance-model structure:

* forward / inference (Eq. 3)::

      T_fwd = b·(c1·F + c2·I + c3·O) + c4          b = B/N (mini-batch)

* gradient update (Eq. 4)::

      T_grad = c1·L                    N = 1
      T_grad = c1·L + c2·W + c3·N      N > 1

* combined backward + gradient update (Section 3.3): the seven-coefficient
  union of both designs, fitted against the summed backward and update
  measurements because the two phases overlap in Horovod.

F, I, O are batch-size-one metrics; the batch enters as an explicit factor,
so a single fit covers every batch size — including ones that exceed device
memory, which is what powers the Figure 9 extrapolation.

Each ``*_row`` builder returns one design row as a tuple of Python floats:
the ``*_design`` functions stack those rows for fitting, and
:meth:`~repro.core.regression.LinearModel.predict_row` scores one of them
per query.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.benchdata.records import ConvNetFeatures, TimingRecord

#: The metric combination the paper settles on for the forward pass.
FORWARD_FEATURES: tuple[str, ...] = ("flops", "inputs", "outputs")

#: Column labels of the combined backward+update design.
COMBINED_FEATURES: tuple[str, ...] = (
    "b*flops", "b*inputs", "b*outputs", "layers", "weights", "devices",
    "intercept",
)


def _metric(features: ConvNetFeatures, name: str) -> float:
    try:
        return float(getattr(features, name))
    except AttributeError:
        raise KeyError(
            f"unknown ConvNet metric {name!r}; have flops, inputs, outputs, "
            "weights, layers"
        ) from None


def forward_row(
    features: ConvNetFeatures,
    batch: int,
    metric_names: Sequence[str] = FORWARD_FEATURES,
) -> tuple[float, ...]:
    """One design row (b·m1, …, b·mk, 1) for the forward model."""
    try:
        return (
            *[batch * float(getattr(features, m)) for m in metric_names], 1.0
        )
    except AttributeError:
        for m in metric_names:  # the KeyError naming the first unknown one
            _metric(features, m)
        raise


def forward_design(
    records: Sequence[TimingRecord],
    metric_names: Sequence[str] = FORWARD_FEATURES,
) -> np.ndarray:
    """Design matrix of Eq. 3 (rows = records)."""
    X = np.empty((len(records), len(metric_names) + 1))
    for i, r in enumerate(records):
        X[i] = forward_row(r.features, r.batch, metric_names)
    return X


def grad_update_row(
    features: ConvNetFeatures, devices: int, multi_node: bool
) -> tuple[float, ...]:
    """One design row of Eq. 4."""
    if multi_node:
        return (
            float(features.layers), float(features.weights), float(devices),
            1.0,
        )
    return (float(features.layers), 1.0)


def grad_update_design(
    records: Sequence[TimingRecord], multi_node: bool
) -> np.ndarray:
    """Design matrix of Eq. 4 for a homogeneous (single or multi) dataset."""
    X = np.empty((len(records), 4 if multi_node else 2))
    for i, r in enumerate(records):
        X[i] = grad_update_row(r.features, r.devices, multi_node)
    return X


def combined_bwd_grad_row(
    features: ConvNetFeatures, batch: int, devices: int
) -> tuple[float, ...]:
    """One seven-coefficient row for the overlapped backward+update model."""
    return (
        float(batch * features.flops),
        float(batch * features.inputs),
        float(batch * features.outputs),
        float(features.layers),
        float(features.weights),
        float(devices),
        1.0,
    )


def combined_bwd_grad_design(
    records: Sequence[TimingRecord],
) -> np.ndarray:
    """Design matrix of the combined backward+gradient-update model."""
    X = np.empty((len(records), len(COMBINED_FEATURES)))
    for i, r in enumerate(records):
        X[i] = combined_bwd_grad_row(r.features, r.batch, r.devices)
    return X


def target(records: Sequence[TimingRecord], which: str) -> np.ndarray:
    """Measurement vector for a phase: fwd | bwd | grad | bwd+grad | total."""
    extractors = {
        "fwd": lambda r: r.t_fwd,
        "bwd": lambda r: r.t_bwd,
        "grad": lambda r: r.t_grad,
        "bwd+grad": lambda r: r.t_bwd + r.t_grad,
        "total": lambda r: r.t_total,
    }
    try:
        extract = extractors[which]
    except KeyError:
        raise KeyError(
            f"unknown target {which!r}; options: {', '.join(extractors)}"
        ) from None
    return np.array([extract(r) for r in records], dtype=np.float64)
