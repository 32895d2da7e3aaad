"""One-shot report generator: regenerate every paper artefact as markdown.

``python -m repro.experiments.report`` (or ``repro experiment`` per
artefact) re-runs the full evaluation and emits a self-contained markdown
document — the executable counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from repro.experiments import EXPERIMENTS, Experiment
from repro.fileio import write_text_atomic


def generate_markdown(
    experiments: Sequence[Experiment] = EXPERIMENTS,
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
    for experiment in experiments:
        start = time.perf_counter()
        result = experiment.runner()()
        elapsed = time.perf_counter() - start
        sections.append("")
        sections.append(f"## {experiment.title}")
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
