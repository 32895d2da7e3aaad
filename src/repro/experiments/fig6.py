"""Figure 6: ConvMeter vs DIPPM inference-prediction error per ConvNet.

Protocol from Section 4.1.3: fixed 128×128 images, batch sizes from 16 to
2000.  Both predictors are evaluated on models excluded from their training
data; fresh held-out measurements (a seed never used for fitting) are the
ground truth.  DIPPM's stand-in cannot parse SqueezeNet, as the original
could not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import format_table
from repro.baselines.dippm import DippmSurrogate, GraphUnsupportedError
from repro.benchdata import DEFAULT_MODELS
from repro.core.forward import ForwardModel
from repro.core.metrics import evaluate_predictions
from repro.experiments.common import GPU, SEED_EVAL, gpu_inference_data
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.roofline import graph_record
from repro.zoo.registry import get_entry

#: Section 4.1.3 protocol: image 128, batches 16 … 2000.
EVAL_BATCHES: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024, 2000)
EVAL_IMAGE = 128


@dataclass(frozen=True)
class Fig6Row:
    model: str
    convmeter_mape: float
    convmeter_nrmse: float
    dippm_mape: float | None
    dippm_nrmse: float | None

    @property
    def convmeter_wins(self) -> bool | None:
        if self.dippm_mape is None:
            return None
        return self.convmeter_mape < self.dippm_mape


@dataclass(frozen=True)
class Fig6Result:
    rows_data: tuple[Fig6Row, ...]

    @property
    def convmeter_wins_everywhere(self) -> bool:
        return all(
            row.convmeter_wins
            for row in self.rows_data
            if row.convmeter_wins is not None
        )

    @property
    def unparseable_models(self) -> list[str]:
        return [r.model for r in self.rows_data if r.dippm_mape is None]

    def rows(self) -> list[dict[str, object]]:
        out = []
        for r in self.rows_data:
            out.append(
                {
                    "model": get_entry(r.model).display,
                    "convmeter_mape": r.convmeter_mape,
                    "dippm_mape": r.dippm_mape,
                    "convmeter_nrmse": r.convmeter_nrmse,
                    "dippm_nrmse": r.dippm_nrmse,
                }
            )
        return out

    def render(self) -> str:
        return format_table(
            self.rows(),
            [
                ("model", None),
                ("convmeter_mape", ".3f"),
                ("dippm_mape", ".3f"),
                ("convmeter_nrmse", ".3f"),
                ("dippm_nrmse", ".3f"),
            ],
            title=(
                "Figure 6 — ConvMeter vs DIPPM "
                f"(image {EVAL_IMAGE}, batches {EVAL_BATCHES[0]}–"
                f"{EVAL_BATCHES[-1]})"
            ),
        )


def run_fig6(models: tuple[str, ...] = DEFAULT_MODELS) -> Fig6Result:
    fit_data = gpu_inference_data()
    executor = SimulatedExecutor(GPU, seed=SEED_EVAL)
    rows: list[Fig6Row] = []
    for model in models:
        others = [m for m in models if m != model]
        record = graph_record("model", model, EVAL_IMAGE)
        profile, features = record.profile, record.features
        measured = np.array(
            [
                executor.measure_inference(profile, b, enforce_memory=False)
                for b in EVAL_BATCHES
            ]
        )
        convmeter = ForwardModel().fit(fit_data.excluding_model(model))
        cm_pred = np.array(
            [convmeter.predict_one(features, b) for b in EVAL_BATCHES]
        )
        cm = evaluate_predictions(measured, cm_pred)

        dippm_mape = dippm_nrmse = None
        try:
            surrogate = DippmSurrogate(device=GPU, seed=5).train(list(others))
            dp_pred = np.array(
                [surrogate.predict_model(model, b) for b in EVAL_BATCHES]
            )
            dp = evaluate_predictions(measured, dp_pred)
            dippm_mape, dippm_nrmse = dp.mape, dp.nrmse
        except GraphUnsupportedError:
            pass
        rows.append(
            Fig6Row(
                model=model,
                convmeter_mape=cm.mape,
                convmeter_nrmse=cm.nrmse,
                dippm_mape=dippm_mape,
                dippm_nrmse=dippm_nrmse,
            )
        )
    return Fig6Result(rows_data=tuple(rows))
