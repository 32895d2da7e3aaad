"""Leave-one-out evaluation protocol (Section 4, "Benchmarks").

"To obtain the error rates per ConvNet, we develop a performance model for
each ConvNet, excluding its own data from the training set to ensure
unbiased evaluation" — i.e. every per-model row of Tables 1–3 comes from a
model that has never seen that ConvNet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.benchdata.records import Dataset, TimingRecord
from repro.core.metrics import EvalMetrics, evaluate_predictions


class _FittablePredictor(Protocol):
    def fit(self, data): ...
    def predict(self, data) -> np.ndarray: ...


@dataclass(frozen=True)
class LeaveOneOutResult:
    """Per-model metrics plus the pooled predictions for scatter plots."""

    per_model: dict[str, EvalMetrics]
    pooled: EvalMetrics
    #: (model, measured, predicted) triples in evaluation order.
    predictions: tuple[tuple[str, float, float], ...]

    def worst_model(self) -> str:
        return max(self.per_model, key=lambda m: self.per_model[m].mape)

    def best_model(self) -> str:
        return min(self.per_model, key=lambda m: self.per_model[m].mape)

    def mean_mape(self) -> float:
        return float(
            np.mean([m.mape for m in self.per_model.values()])
        )


def leave_one_out(
    data: Dataset,
    model_factory: Callable[[], _FittablePredictor],
    measured_of: Callable[[TimingRecord], float],
) -> LeaveOneOutResult:
    """Fit-and-evaluate with each model's records held out in turn.

    ``model_factory`` builds a fresh unfitted predictor;``measured_of``
    extracts the measured target from a record (e.g. ``lambda r: r.t_fwd``).
    """
    names = data.models()
    if len(names) < 2:
        raise ValueError(
            "leave-one-out needs at least two distinct models in the dataset"
        )
    per_model: dict[str, EvalMetrics] = {}
    triples: list[tuple[str, float, float]] = []
    for name in names:
        train = data.excluding_model(name)
        test = data.for_model(name)
        predictor = model_factory()
        predictor.fit(train)
        predicted = np.asarray(predictor.predict(test), dtype=np.float64)
        measured = np.array([measured_of(r) for r in test], dtype=np.float64)
        per_model[name] = evaluate_predictions(measured, predicted)
        triples.extend(
            (name, float(m), float(p)) for m, p in zip(measured, predicted)
        )
    all_measured = np.array([t[1] for t in triples])
    all_predicted = np.array([t[2] for t in triples])
    return LeaveOneOutResult(
        per_model=per_model,
        pooled=evaluate_predictions(all_measured, all_predicted),
        predictions=tuple(triples),
    )


def shared_fit_evaluation(
    data: Dataset,
    model_factory: Callable[[], _FittablePredictor],
    measured_of: Callable[[TimingRecord], float],
) -> LeaveOneOutResult:
    """Fit once on the whole dataset, report per-model accuracy.

    The protocol of Section 4.1: "All runtime predictions for a given device
    use the same coefficients, as we use the same data points from all
    ConvNets to fit the coefficients."  Same result shape as
    :func:`leave_one_out` so reports can swap protocols.
    """
    predictor = model_factory()
    predictor.fit(data)
    per_model: dict[str, EvalMetrics] = {}
    triples: list[tuple[str, float, float]] = []
    for name in data.models():
        test = data.for_model(name)
        predicted = np.asarray(predictor.predict(test), dtype=np.float64)
        measured = np.array([measured_of(r) for r in test], dtype=np.float64)
        per_model[name] = evaluate_predictions(measured, predicted)
        triples.extend(
            (name, float(m), float(p)) for m, p in zip(measured, predicted)
        )
    all_measured = np.array([t[1] for t in triples])
    all_predicted = np.array([t[2] for t in triples])
    return LeaveOneOutResult(
        per_model=per_model,
        pooled=evaluate_predictions(all_measured, all_predicted),
        predictions=tuple(triples),
    )
