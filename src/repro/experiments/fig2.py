"""Figure 2: inference prediction from FLOPs vs Inputs vs Outputs vs all three.

"Combining all three metrics leads to the most accurate prediction" — each
variant is fitted and evaluated with the leave-one-out protocol on the GPU
inference campaign; the combined model must beat every single-metric one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.baselines.single_metric import SINGLE_METRIC_VARIANTS, single_metric_model
from repro.core.loo import leave_one_out
from repro.core.metrics import EvalMetrics
from repro.experiments.common import gpu_inference_data


@dataclass(frozen=True)
class Fig2Result:
    """Pooled LOO accuracy per metric variant."""

    variants: dict[str, EvalMetrics]

    @property
    def combined_wins(self) -> bool:
        """True when the combined model beats every single-metric variant on
        both MAPE and R² — the figure's headline claim."""
        combined = self.variants["combined"]
        singles = [v for k, v in self.variants.items() if k != "combined"]
        return all(
            combined.mape < s.mape and combined.r2 > s.r2 for s in singles
        )

    def rows(self) -> list[dict[str, object]]:
        return [
            {
                "variant": name,
                "r2": m.r2,
                "rmse_ms": m.rmse * 1e3,
                "nrmse": m.nrmse,
                "mape": m.mape,
            }
            for name, m in self.variants.items()
        ]

    def render(self) -> str:
        return format_table(
            self.rows(),
            [
                ("variant", None),
                ("r2", ".3f"),
                ("rmse_ms", ".2f"),
                ("nrmse", ".3f"),
                ("mape", ".3f"),
            ],
            title="Figure 2 — inference prediction per metric set (GPU, LOO)",
        )


def run_fig2() -> Fig2Result:
    data = gpu_inference_data()
    variants: dict[str, EvalMetrics] = {}
    for name in SINGLE_METRIC_VARIANTS:
        result = leave_one_out(
            data,
            model_factory=lambda name=name: single_metric_model(name),
            measured_of=lambda r: r.t_fwd,
        )
        variants[name] = result.pooled
    return Fig2Result(variants=variants)
