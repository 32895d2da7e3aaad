"""Table 2 + Figure 4: block-wise inference prediction on the GPU.

The nine blocks of the catalogue are benchmarked as standalone subgraphs;
accuracy is reported per block with the same leave-one-out discipline
(each block evaluated by a model that never saw its measurements).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.blockwise import blockwise_evaluation
from repro.core.loo import LeaveOneOutResult
from repro.experiments.common import block_data
from repro.zoo.blocks import block_by_name


@dataclass(frozen=True)
class Table2Result:
    loo: LeaveOneOutResult

    def rows(self) -> list[dict[str, object]]:
        rows = []
        for block, metrics in self.loo.per_model.items():
            spec = block_by_name(block)
            rows.append(
                {
                    "block": block,
                    "source": spec.display_source,
                    "rmse_ms": metrics.rmse * 1e3,
                    "nrmse": metrics.nrmse,
                    "mape": metrics.mape,
                    "r2": metrics.r2,
                }
            )
        return rows

    def render(self) -> str:
        table = format_table(
            self.rows(),
            [
                ("block", None),
                ("source", None),
                ("rmse_ms", ".2f"),
                ("nrmse", ".2f"),
                ("mape", ".2f"),
                ("r2", ".3f"),
            ],
            title="Table 2 — block-wise inference prediction (GPU, LOO)",
        )
        return table + f"\nFigure 4 pooled: {self.loo.pooled}"


def run_table2() -> Table2Result:
    return Table2Result(loo=blockwise_evaluation(block_data()))
