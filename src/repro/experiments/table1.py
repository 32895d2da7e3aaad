"""Table 1 + Figure 3: per-ConvNet inference accuracy on CPU and GPU.

Leave-one-out protocol: each ConvNet's rows come from a model fitted on all
*other* ConvNets' measurements.  The figure's scatter data (measured vs
predicted pairs) is included in the result for series rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.core.forward import ForwardModel
from repro.core.loo import LeaveOneOutResult, leave_one_out
from repro.experiments.common import cpu_inference_data, gpu_inference_data
from repro.zoo.registry import get_entry


@dataclass(frozen=True)
class Table1Result:
    cpu: LeaveOneOutResult
    gpu: LeaveOneOutResult

    def rows(self) -> list[dict[str, object]]:
        rows = []
        models = sorted(
            set(self.cpu.per_model) | set(self.gpu.per_model),
            key=lambda m: get_entry(m).display.lower(),
        )
        for model in models:
            display = get_entry(model).display
            row: dict[str, object] = {"model": display}
            if model in self.cpu.per_model:
                m = self.cpu.per_model[model]
                row.update(
                    cpu_r2=m.r2, cpu_rmse_s=m.rmse, cpu_nrmse=m.nrmse,
                    cpu_mape=m.mape,
                )
            if model in self.gpu.per_model:
                m = self.gpu.per_model[model]
                row.update(
                    gpu_r2=m.r2, gpu_rmse_ms=m.rmse * 1e3, gpu_nrmse=m.nrmse,
                    gpu_mape=m.mape,
                )
            rows.append(row)
        return rows

    def render(self) -> str:
        table = format_table(
            self.rows(),
            [
                ("model", None),
                ("cpu_r2", ".3f"),
                ("cpu_rmse_s", ".3f"),
                ("cpu_nrmse", ".2f"),
                ("cpu_mape", ".2f"),
                ("gpu_r2", ".3f"),
                ("gpu_rmse_ms", ".2f"),
                ("gpu_nrmse", ".2f"),
                ("gpu_mape", ".2f"),
            ],
            title="Table 1 — per-ConvNet inference prediction (LOO)",
        )
        footer = (
            f"\nFigure 3 pooled: CPU {self.cpu.pooled}"
            f"\n                 GPU {self.gpu.pooled}"
        )
        return table + footer


def run_table1() -> Table1Result:
    factory = lambda: ForwardModel()  # noqa: E731 - tiny factory
    measured = lambda r: r.t_fwd  # noqa: E731
    return Table1Result(
        cpu=leave_one_out(cpu_inference_data(), factory, measured),
        gpu=leave_one_out(gpu_inference_data(), factory, measured),
    )
