"""Per-block latency breakdown of one model — the NAS-facing report.

Section 4.1 motivates fine-grained prediction as "particularly useful for
neural architecture search and network optimization methods to spot and
tune the network's bottlenecks".  This report predicts every block of a
model with a fitted forward model and ranks the bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tables import format_table
from repro.benchdata.records import ConvNetFeatures
from repro.core.features import forward_row
from repro.core.forward import ForwardModel
from repro.graph.graph import ComputeGraph
from repro.hardware.roofline import profile_graph


@dataclass(frozen=True)
class BlockReportRow:
    """Predicted cost of one block of a model."""

    block: str
    layers: int
    params: int
    flops: float
    predicted_time: float
    share: float  # fraction of the summed block time


@dataclass(frozen=True)
class ModelReport:
    model: str
    batch: int
    rows: tuple[BlockReportRow, ...]
    #: FIT004 extrapolation-domain notes: block queries that fall outside
    #: the forward model's fitted feature ranges (empty when all blocks
    #: are in-domain or the model carries no ranges).
    domain_notes: tuple[str, ...] = field(default=())

    @property
    def total_time(self) -> float:
        return sum(r.predicted_time for r in self.rows)

    def bottleneck(self) -> BlockReportRow:
        return max(self.rows, key=lambda r: r.predicted_time)

    def render(self) -> str:
        table_rows = [
            {
                "block": r.block,
                "layers": r.layers,
                "params_k": r.params / 1e3,
                "gflops": r.flops * self.batch / 1e9,
                "pred_ms": r.predicted_time * 1e3,
                "share": f"{r.share:.0%}",
            }
            for r in self.rows
        ]
        table = format_table(
            table_rows,
            [
                ("block", None),
                ("layers", None),
                ("params_k", ".0f"),
                ("gflops", ".2f"),
                ("pred_ms", ".3f"),
                ("share", None),
            ],
            title=(
                f"Block-level latency report — {self.model} "
                f"(batch {self.batch})"
            ),
        )
        if self.domain_notes:
            table += "\n" + "\n".join(
                f"extrapolation [FIT004]: {note}" for note in self.domain_notes
            )
        return table


def block_report(
    graph: ComputeGraph,
    forward_model: ForwardModel,
    batch: int = 1,
    domain_factor: float | None = 10.0,
) -> ModelReport:
    """Predict every block of ``graph`` with a fitted forward model.

    Blocks are the graph's declared scopes; per-block predictions come from
    block subgraphs exactly as in the Table 2 protocol.  Blocks whose
    design rows fall beyond ``domain_factor``× the model's fitted feature
    ranges are surfaced as FIT004 ``domain_notes`` on the report — a model
    fitted on whole networks is extrapolating when asked about a tiny
    block.
    """
    names = graph.block_names()
    if not names:
        raise ValueError(f"graph {graph.name!r} declares no blocks")
    rows: list[BlockReportRow] = []
    design_rows: list[tuple[float, ...]] = []
    for scope in names:
        sub = graph.block_subgraph(scope)
        profile = profile_graph(sub)
        features = ConvNetFeatures.from_profile(profile)
        design_rows.append(
            forward_row(features, batch, forward_model.metric_names)
        )
        predicted = forward_model.predict_one(features, batch)
        rows.append(
            BlockReportRow(
                block=scope,
                layers=profile.parametric_layers,
                params=int(profile.total_params),
                flops=profile.total_flops,
                predicted_time=max(predicted, 0.0),
                share=0.0,
            )
        )
    total = sum(r.predicted_time for r in rows) or 1.0
    rows = [
        BlockReportRow(
            block=r.block,
            layers=r.layers,
            params=r.params,
            flops=r.flops,
            predicted_time=r.predicted_time,
            share=r.predicted_time / total,
        )
        for r in rows
    ]
    notes: tuple[str, ...] = ()
    if domain_factor is not None:
        notes = tuple(
            v.describe()
            for v in forward_model.model.domain_violations(
                np.array(design_rows), factor=domain_factor
            )
        )
    return ModelReport(
        model=graph.name, batch=batch, rows=tuple(rows), domain_notes=notes
    )
