"""Forward-pass / inference performance model (Section 3.1).

``T_fwd = b·(c1·FLOPs + c2·Inputs + c3·Outputs) + c4`` with batch-size-one
metrics and mini-batch ``b = B/N``.  The metric set is configurable so the
Figure 2 ablation (FLOPs-only, Inputs-only, Outputs-only vs the combination)
is a parameter, not a separate code path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
from repro.core.features import FORWARD_FEATURES, forward_design, forward_row, target
from repro.core.metrics import EvalMetrics, evaluate_predictions
from repro.core.regression import LinearModel


class ForwardModel:
    """Predicts forward-pass (inference) time from ConvNet metrics."""

    def __init__(
        self,
        metric_names: Sequence[str] = FORWARD_FEATURES,
        method: str = "ols",
        phase: str = "fwd",
    ) -> None:
        self.metric_names = tuple(metric_names)
        self.phase = phase
        self.model = LinearModel(
            method=method,
            feature_names=tuple(f"b*{m}" for m in self.metric_names)
            + ("intercept",),
        )

    def fit(self, data: Dataset | Sequence[TimingRecord]) -> "ForwardModel":
        records = list(data)
        if not records:
            raise ValueError("cannot fit on an empty dataset")
        X = forward_design(records, self.metric_names)
        y = target(records, self.phase)
        self.model.fit(X, y)
        return self

    def predict_one(self, features: ConvNetFeatures, batch: int) -> float:
        """Predicted time for one network at one mini-batch size."""
        return self.model.predict_row(
            forward_row(features, batch, self.metric_names)
        )

    def predict_configs(
        self, features: ConvNetFeatures, batches: Sequence[int]
    ) -> np.ndarray:
        """Batched :meth:`predict_one` over a batch-size sweep.

        One design matrix, one predict call; element ``i`` is
        bit-identical to ``predict_one(features, batches[i])`` because
        :meth:`LinearModel.predict` accumulates columnwise in a
        shape-invariant order.
        """
        X = np.empty((len(batches), len(self.metric_names) + 1))
        for i, batch in enumerate(batches):
            X[i] = forward_row(features, batch, self.metric_names)
        return self.model.predict(X)

    def predict(self, data: Dataset | Sequence[TimingRecord]) -> np.ndarray:
        records = list(data)
        return self.model.predict(forward_design(records, self.metric_names))

    def evaluate(self, data: Dataset | Sequence[TimingRecord]) -> EvalMetrics:
        records = list(data)
        measured = target(records, self.phase)
        return evaluate_predictions(measured, self.predict(records))

    def coefficients(self) -> dict[str, float]:
        return self.model.coefficients()
