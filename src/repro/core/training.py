"""Training-phase performance models (Sections 3.2–3.4).

* :class:`BackwardModel` — same structure as the forward model, fitted on
  backward-pass measurements (Section 3.2).
* :class:`GradientUpdateModel` — Eq. 4: ``c1·L`` on a single device,
  ``c1·L + c2·W + c3·N`` across nodes (Section 3.3).
* :class:`CombinedBwdGradModel` — because the gradient update overlaps the
  backward pass under Horovod's tensor fusion, the paper fits both phases
  jointly with seven coefficients against the summed measurement.
* :class:`TrainingStepModel` — Eq. 1: ``T_iter = T_fwd + T_bwd + T_grad``,
  realised as forward + combined(backward, update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
from repro.core.features import (
    combined_bwd_grad_design,
    combined_bwd_grad_row,
    grad_update_design,
    grad_update_row,
    target,
)
from repro.core.forward import ForwardModel
from repro.core.metrics import EvalMetrics, evaluate_predictions
from repro.core.regression import LinearModel


class BackwardModel(ForwardModel):
    """Backward-pass model: forward structure, backward measurements."""

    def __init__(self, method: str = "ols") -> None:
        super().__init__(method=method, phase="bwd")


class GradientUpdateModel:
    """Gradient-update model, Eq. 4.

    ``multi_node=False`` fits ``c1·L + c2`` (the intercept absorbs the fixed
    optimizer-launch cost); ``multi_node=True`` fits
    ``c1·L + c2·W + c3·N + c4``.
    """

    def __init__(self, multi_node: bool, method: str = "ols") -> None:
        self.multi_node = multi_node
        names = (
            ("layers", "weights", "devices", "intercept")
            if multi_node
            else ("layers", "intercept")
        )
        self.model = LinearModel(method=method, feature_names=names)

    def fit(self, data: Dataset | Sequence[TimingRecord]) -> "GradientUpdateModel":
        records = list(data)
        if not records:
            raise ValueError("cannot fit on an empty dataset")
        X = grad_update_design(records, self.multi_node)
        y = target(records, "grad")
        self.model.fit(X, y)
        return self

    def predict_one(self, features: ConvNetFeatures, devices: int = 1) -> float:
        row = grad_update_row(features, devices, self.multi_node)
        return self.model.predict_row(row)

    def predict(self, data: Dataset | Sequence[TimingRecord]) -> np.ndarray:
        records = list(data)
        return self.model.predict(
            grad_update_design(records, self.multi_node)
        )

    def evaluate(self, data: Dataset | Sequence[TimingRecord]) -> EvalMetrics:
        records = list(data)
        return evaluate_predictions(
            target(records, "grad"), self.predict(records)
        )

    def coefficients(self) -> dict[str, float]:
        return self.model.coefficients()


class CombinedBwdGradModel:
    """Joint backward + gradient-update model (seven coefficients).

    Mirrors the piecewise structure of Eq. 4: gradient synchronisation over
    the intra-node fabric (single node) and over the inter-node network are
    different physical regimes, so separate coefficient sets are fitted for
    single-node and multi-node records.  The multi-node branch carries the
    weights and device-count terms (inter-node communication scales with
    the model size); the single-node branch does not need them beyond the
    per-layer update cost.
    """

    SINGLE_FEATURES = (
        "b*flops", "b*inputs", "b*outputs", "layers", "intercept",
    )
    MULTI_FEATURES = (
        "b*flops", "b*inputs", "b*outputs", "layers", "weights", "devices",
        "intercept",
    )

    def __init__(self, method: str = "ols") -> None:
        self.method = method
        self.single = LinearModel(
            method=method, feature_names=self.SINGLE_FEATURES
        )
        self.multi = LinearModel(
            method=method, feature_names=self.MULTI_FEATURES
        )

    @staticmethod
    def _single_row(
        features: ConvNetFeatures, batch: int
    ) -> tuple[float, ...]:
        return (
            float(batch * features.flops),
            float(batch * features.inputs),
            float(batch * features.outputs),
            float(features.layers),
            1.0,
        )

    def fit(self, data: Dataset | Sequence[TimingRecord]) -> "CombinedBwdGradModel":
        records = list(data)
        if not records:
            raise ValueError("cannot fit on an empty dataset")
        single = [r for r in records if r.nodes == 1]
        multi = [r for r in records if r.nodes > 1]
        if single:
            X = np.empty((len(single), len(self.SINGLE_FEATURES)))
            for i, r in enumerate(single):
                X[i] = self._single_row(r.features, r.batch)
            self.single.fit(X, target(single, "bwd+grad"))
        if multi:
            self.multi.fit(
                combined_bwd_grad_design(multi), target(multi, "bwd+grad")
            )
        return self

    def regression_row(
        self,
        features: ConvNetFeatures,
        batch: int,
        devices: int = 1,
        nodes: int = 1,
    ) -> tuple[LinearModel, tuple[float, ...]]:
        """The regression of the query's regime and its design row."""
        if nodes > 1:
            if not self.multi.is_fitted:
                raise RuntimeError(
                    "no multi-node records were available at fit time"
                )
            return self.multi, combined_bwd_grad_row(features, batch, devices)
        if not self.single.is_fitted:
            raise RuntimeError(
                "no single-node records were available at fit time"
            )
        return self.single, self._single_row(features, batch)

    def predict_one(
        self,
        features: ConvNetFeatures,
        batch: int,
        devices: int = 1,
        nodes: int = 1,
    ) -> float:
        regression, row = self.regression_row(features, batch, devices, nodes)
        return regression.predict_row(row)

    def predict_configs(
        self,
        features: ConvNetFeatures,
        configs: Sequence[tuple[int, int, int]],
    ) -> np.ndarray:
        """Batched :meth:`predict_one` over ``(batch, devices, nodes)``
        sweep configurations.

        Partitions the sweep into the single-node and multi-node
        regimes, builds one preallocated design matrix per regime and
        predicts each with a single call; element ``i`` is bit-identical
        to ``predict_one(features, *configs[i])``.
        """
        out = np.empty(len(configs), dtype=np.float64)
        single = [i for i, (_, _, n) in enumerate(configs) if n == 1]
        multi = [i for i, (_, _, n) in enumerate(configs) if n > 1]
        if multi:
            if not self.multi.is_fitted:
                raise RuntimeError(
                    "no multi-node records were available at fit time"
                )
            X = np.empty((len(multi), len(self.MULTI_FEATURES)))
            for j, i in enumerate(multi):
                batch, devices, _ = configs[i]
                X[j] = combined_bwd_grad_row(features, batch, devices)
            out[multi] = self.multi.predict(X)
        if single:
            if not self.single.is_fitted:
                raise RuntimeError(
                    "no single-node records were available at fit time"
                )
            X = np.empty((len(single), len(self.SINGLE_FEATURES)))
            for j, i in enumerate(single):
                X[j] = self._single_row(features, configs[i][0])
            out[single] = self.single.predict(X)
        return out

    def predict(self, data: Dataset | Sequence[TimingRecord]) -> np.ndarray:
        records = list(data)
        return np.array(
            [
                self.predict_one(r.features, r.batch, r.devices, r.nodes)
                for r in records
            ]
        )

    def evaluate(self, data: Dataset | Sequence[TimingRecord]) -> EvalMetrics:
        records = list(data)
        return evaluate_predictions(
            target(records, "bwd+grad"), self.predict(records)
        )

    def coefficients(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        if self.single.is_fitted:
            out["single_node"] = self.single.coefficients()
        if self.multi.is_fitted:
            out["multi_node"] = self.multi.coefficients()
        return out


@dataclass(frozen=True)
class StepPrediction:
    """Predicted phase breakdown of one training step."""

    forward: float
    backward_plus_update: float

    @property
    def total(self) -> float:
        return self.forward + self.backward_plus_update


class TrainingStepModel:
    """Full training-step model: Eq. 1 as forward + combined(bwd, update)."""

    def __init__(self, method: str = "ols") -> None:
        self.forward = ForwardModel(method=method, phase="fwd")
        self.bwd_grad = CombinedBwdGradModel(method=method)

    def fit(self, data: Dataset | Sequence[TimingRecord]) -> "TrainingStepModel":
        records = list(data)
        self.forward.fit(records)
        self.bwd_grad.fit(records)
        return self

    def predict_one(
        self,
        features: ConvNetFeatures,
        batch: int,
        devices: int = 1,
        nodes: int = 1,
    ) -> StepPrediction:
        return StepPrediction(
            forward=self.forward.predict_one(features, batch),
            backward_plus_update=self.bwd_grad.predict_one(
                features, batch, devices, nodes
            ),
        )

    def predict_configs(
        self,
        features: ConvNetFeatures,
        configs: Sequence[tuple[int, int, int]],
    ) -> np.ndarray:
        """Batched step-time totals over ``(batch, devices, nodes)``
        configurations; element ``i`` is bit-identical to
        ``predict_one(features, *configs[i]).total`` (elementwise float64
        addition of the same two doubles)."""
        fwd = self.forward.predict_configs(
            features, [batch for batch, _, _ in configs]
        )
        return fwd + self.bwd_grad.predict_configs(features, configs)

    def predict(self, data: Dataset | Sequence[TimingRecord]) -> np.ndarray:
        records = list(data)
        return self.forward.predict(records) + self.bwd_grad.predict(records)

    def evaluate(self, data: Dataset | Sequence[TimingRecord]) -> EvalMetrics:
        records = list(data)
        return evaluate_predictions(
            target(records, "total"), self.predict(records)
        )

    def evaluate_phase(
        self, data: Dataset | Sequence[TimingRecord], phase: str
    ) -> EvalMetrics:
        """Per-phase accuracy: ``fwd`` or ``bwd+grad``."""
        records = list(data)
        if phase == "fwd":
            return self.forward.evaluate(records)
        if phase == "bwd+grad":
            return self.bwd_grad.evaluate(records)
        raise KeyError(f"unknown phase {phase!r}")
