"""Experiment harness: the paper's tables and figures.

:data:`EXPERIMENTS` is the one catalogue of paper artefacts, in paper
order: ``repro experiment <id>`` runs one entry and
:func:`repro.experiments.report.generate_markdown` runs them all.  Each
entry names its runner as ``"module:function"``, so reading the catalogue
imports no experiment module.  A runner returns a structured result
object with a ``render()`` method that prints the same rows/series the
paper reports.  The benchmarks under ``benchmarks/`` are thin wrappers
that execute the runners and assert the paper's qualitative shapes.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, NamedTuple


class Experiment(NamedTuple):
    """One catalogue entry: CLI id, report section title, runner."""

    id: str
    title: str
    #: The runner as ``"module:function"``, imported on demand.
    target: str

    def runner(self) -> Callable[[], Any]:
        module, _, name = self.target.partition(":")
        return getattr(importlib.import_module(module), name)


#: Every paper artefact, in paper order.
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("fig1", "Figure 1 — training-step anatomy",
               "repro.experiments.fig1:run_fig1"),
    Experiment("fig2", "Figure 2 — metric-set ablation",
               "repro.experiments.fig2:run_fig2"),
    Experiment("table1", "Table 1 + Figure 3 — whole-model inference",
               "repro.experiments.table1:run_table1"),
    Experiment("table2", "Table 2 + Figure 4 — block-wise inference",
               "repro.experiments.table2:run_table2"),
    Experiment("fig6", "Figure 6 — ConvMeter vs DIPPM",
               "repro.experiments.fig6:run_fig6"),
    Experiment("table3-single", "Table 3 + Figure 5 — single-GPU training",
               "repro.experiments.table3:run_table3_single"),
    Experiment("table3-distributed",
               "Table 3 + Figure 7 — distributed training",
               "repro.experiments.table3:run_table3_distributed"),
    Experiment("fig8", "Figure 8 — throughput vs nodes",
               "repro.experiments.fig8:run_fig8"),
    Experiment("fig9", "Figure 9 — throughput vs batch size",
               "repro.experiments.fig9:run_fig9"),
    Experiment("table4", "Table 4 — related work",
               "repro.experiments.table4:run_table4"),
    Experiment("strong-scaling", "Strong scaling (extension)",
               "repro.experiments.strong_scaling:run_strong_scaling"),
)
