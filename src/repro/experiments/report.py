"""One-shot report generator: regenerate every paper artefact as markdown.

``python -m repro.experiments.report`` (or ``repro experiment`` per
artefact) re-runs the full evaluation and emits a self-contained markdown
document — the executable counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Sequence

from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.strong_scaling import run_strong_scaling
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3_distributed import run_table3_distributed
from repro.experiments.table3_single import run_table3_single
from repro.experiments.table4 import run_table4
from repro.fileio import write_text_atomic

#: (section title, runner) in paper order.
ALL_EXPERIMENTS: tuple[tuple[str, Callable], ...] = (
    ("Figure 1 — training-step anatomy", run_fig1),
    ("Figure 2 — metric-set ablation", run_fig2),
    ("Table 1 + Figure 3 — whole-model inference", run_table1),
    ("Table 2 + Figure 4 — block-wise inference", run_table2),
    ("Figure 6 — ConvMeter vs DIPPM", run_fig6),
    ("Table 3 + Figure 5 — single-GPU training", run_table3_single),
    ("Table 3 + Figure 7 — distributed training", run_table3_distributed),
    ("Figure 8 — throughput vs nodes", run_fig8),
    ("Figure 9 — throughput vs batch size", run_fig9),
    ("Table 4 — related work", run_table4),
    ("Strong scaling (extension)", run_strong_scaling),
)


def generate_markdown(
    experiments: Sequence[tuple[str, Callable]] = ALL_EXPERIMENTS,
    include_timings: bool = True,
) -> str:
    """Run the given experiments and render one markdown document."""
    sections = [
        "# ConvMeter evaluation report",
        "",
        "Regenerated from the current simulator and model code; compare "
        "against the committed EXPERIMENTS.md for the paper-vs-measured "
        "discussion.",
    ]
    for title, runner in experiments:
        start = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - start
        sections.append("")
        sections.append(f"## {title}")
        sections.append("")
        sections.append("```")
        sections.append(result.render())
        sections.append("```")
        if include_timings:
            sections.append(f"*(regenerated in {elapsed:.1f} s)*")
    return "\n".join(sections) + "\n"


def write_report(path: str | Path, **kwargs) -> None:
    write_text_atomic(path, generate_markdown(**kwargs))


if __name__ == "__main__":  # pragma: no cover
    print(generate_markdown())
