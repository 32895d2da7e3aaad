"""Table 3 + Figures 5 and 7: training-step prediction.

Table 3 has two columns, one runner each.  The single-GPU column
(Figure 5) fits the training campaign on one A100; the multi-node column
(Figure 7) fits the distributed campaign (1–8 nodes × 4 GPUs), where the
gradient-update phase uses the multi-node form of Eq. 4
(c1·L + c2·W + c3·N) and backward and update are also fitted jointly
inside the step model because the phases overlap.  Each column reports
per-model leave-one-out accuracy of the entire training step, plus pooled
per-phase accuracy (forward / backward / gradient update / entire step) —
the four panels of its figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.benchdata import Dataset
from repro.core.forward import ForwardModel
from repro.core.loo import LeaveOneOutResult, leave_one_out
from repro.core.metrics import EvalMetrics
from repro.core.training import (
    BackwardModel,
    GradientUpdateModel,
    TrainingStepModel,
)
from repro.experiments.common import distributed_data, training_data
from repro.zoo.registry import get_entry

#: (table title, per-phase figure title) of each column, keyed by
#: ``multi_node``.
_TITLES = {
    False: (
        "Table 3 — single-GPU training-step prediction (LOO)",
        "Figure 5 — per-phase pooled accuracy (LOO)",
    ),
    True: (
        "Table 3 — distributed training-step prediction (LOO)",
        "Figure 7 — per-phase pooled accuracy (multi-node, LOO)",
    ),
}

_COLUMNS = [
    ("r2", ".3f"),
    ("rmse_ms", ".2f"),
    ("nrmse", ".2f"),
    ("mape", ".2f"),
]


def _row(metrics: EvalMetrics) -> dict[str, object]:
    return {
        "r2": metrics.r2,
        "rmse_ms": metrics.rmse * 1e3,
        "nrmse": metrics.nrmse,
        "mape": metrics.mape,
    }


@dataclass(frozen=True)
class Table3Result:
    step: LeaveOneOutResult
    phases: dict[str, EvalMetrics]  # fwd / bwd / grad / step (pooled, LOO)
    multi_node: bool

    def rows(self) -> list[dict[str, object]]:
        return [
            {"model": get_entry(m).display, **_row(e)}
            for m, e in self.step.per_model.items()
        ]

    def render(self) -> str:
        table_title, phase_title = _TITLES[self.multi_node]
        table = format_table(
            self.rows(), [("model", None), *_COLUMNS], title=table_title
        )
        phases = format_table(
            [{"phase": name, **_row(e)} for name, e in self.phases.items()],
            [("phase", None), *_COLUMNS],
            title=phase_title,
        )
        return table + "\n\n" + phases


def _run_table3(data: Dataset, multi_node: bool) -> Table3Result:
    step = leave_one_out(
        data, lambda: TrainingStepModel(), lambda r: r.t_total
    )
    phases = {
        "forward": leave_one_out(
            data, lambda: ForwardModel(phase="fwd"), lambda r: r.t_fwd
        ).pooled,
        "backward": leave_one_out(
            data, lambda: BackwardModel(), lambda r: r.t_bwd
        ).pooled,
        "grad_update": leave_one_out(
            data,
            lambda: GradientUpdateModel(multi_node=multi_node),
            lambda r: r.t_grad,
        ).pooled,
        "entire_step": step.pooled,
    }
    return Table3Result(step=step, phases=phases, multi_node=multi_node)


def run_table3_single() -> Table3Result:
    return _run_table3(training_data(), multi_node=False)


def run_table3_distributed() -> Table3Result:
    return _run_table3(distributed_data(), multi_node=True)
