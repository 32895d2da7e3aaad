"""Table 4: qualitative comparison with related work.

A static capability matrix in the paper; here the ConvMeter row is also
*checked* against the repository — every claimed capability must map to an
implemented, exercised feature.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.related_work import RELATED_WORK, convmeter_row, to_rows
from repro.analysis.tables import format_table


@dataclass(frozen=True)
class Table4Result:
    def rows(self) -> list[dict[str, object]]:
        return to_rows()

    def render(self) -> str:
        return format_table(
            self.rows(),
            [
                ("method", None),
                ("inference", None),
                ("training", None),
                ("unseen", None),
                ("blocks", None),
                ("multi-GPU", None),
                ("multi-node", None),
                ("modeling effort", None),
            ],
            title="Table 4 — comparison with related work",
        )

    def verify_convmeter_claims(self) -> list[str]:
        """Check each ConvMeter capability is backed by implemented code.

        Returns the list of claims that could NOT be verified (empty when
        all hold).
        """
        failures: list[str] = []
        row = convmeter_row()
        # Inference + unseen models + blocks: forward model and LOO exist.
        try:
            from repro.core import ForwardModel, blockwise_evaluation, leave_one_out  # noqa: F401
        except ImportError:
            failures.append("inference/unseen/block prediction")
        # Training: step model exists.
        try:
            from repro.core import TrainingStepModel  # noqa: F401
        except ImportError:
            failures.append("training prediction")
        # Multi-GPU / multi-node: distributed substrate exists.
        try:
            from repro.distributed import ClusterSpec, DistributedTrainer  # noqa: F401
        except ImportError:
            failures.append("multi-GPU / multi-node prediction")
        if not (row.predicts_inference and row.predicts_training
                and row.block_level and row.multi_node):
            failures.append("capability row is inconsistent with the paper")
        return failures


def run_table4() -> Table4Result:
    if RELATED_WORK[-1].name != "ConvMeter (ours)":
        raise RuntimeError("ConvMeter row must be last in the matrix")
    return Table4Result()
