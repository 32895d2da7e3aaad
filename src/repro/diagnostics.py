"""Structured diagnostics shared by the graph verifier and the linter.

Both static-analysis fronts — :mod:`repro.analysis.verify` (checks the
*data*: ConvNet graph IRs) and :mod:`repro.lint` (checks the *code*:
determinism hazards in the repository itself) — report findings as
:class:`Diagnostic` records so the CLI, CI, and tests consume one schema:
a stable rule id, a severity, a location (layer path or ``file:line``),
a human message, and a fix hint.

Severities follow compiler convention: ``ERROR`` findings are defects that
corrupt downstream results and make ``repro verify`` / ``repro lint`` exit
non-zero; ``WARN`` flags suspicious-but-possibly-intentional constructs;
``INFO`` is advisory only.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity; higher values are more severe."""

    INFO = 10
    WARN = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis rule."""

    #: Stable rule identifier (``IR0xx`` for graph rules, ``DET0xx`` for
    #: determinism lint rules); documented in ``docs/static-analysis.md``.
    rule: str
    severity: Severity
    #: Layer path (``graph:node``) or source position (``file:line``).
    location: str
    message: str
    #: Short suggestion for fixing the finding ("" when self-evident).
    hint: str = ""

    def render(self) -> str:
        text = f"{self.severity}: {self.location}: [{self.rule}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Diagnostic":
        """Inverse of :meth:`to_dict`; raises ``KeyError``/``TypeError`` on
        a malformed document."""
        return cls(
            rule=d["rule"],
            severity=Severity[d["severity"]],
            location=d["location"],
            message=d["message"],
            hint=d.get("hint", ""),
        )


def sort_diagnostics(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Most severe first, then by location and rule id — a stable order for
    text output, JSON snapshots, and tests."""
    return sorted(
        diags, key=lambda d: (-int(d.severity), d.location, d.rule)
    )


def count_by_severity(diags: Sequence[Diagnostic]) -> dict[Severity, int]:
    counts = {Severity.ERROR: 0, Severity.WARN: 0, Severity.INFO: 0}
    for d in diags:
        counts[d.severity] += 1
    return counts


def has_errors(diags: Sequence[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


def summary_line(
    diags: Sequence[Diagnostic], subjects: int, unit: str
) -> str:
    """One-line result summary, e.g. ``2 errors, 1 warning across 33 models``.

    ``unit`` names what was analysed (``model(s)``, ``file(s)``); the caller
    supplies the subject count so gated/empty inputs still read correctly.
    """
    counts = count_by_severity(diags)
    n_err, n_warn = counts[Severity.ERROR], counts[Severity.WARN]
    parts = [
        f"{n_err} error{'s' if n_err != 1 else ''}",
        f"{n_warn} warning{'s' if n_warn != 1 else ''}",
    ]
    if counts[Severity.INFO]:
        parts.append(f"{counts[Severity.INFO]} info")
    return (
        f"{', '.join(parts)} across {subjects} "
        f"{unit}{'s' if subjects != 1 else ''}"
    )


def render_text(
    diags: Sequence[Diagnostic], subjects: int, unit: str, quiet: bool = False
) -> str:
    """Human-readable report: one line per diagnostic plus the summary.

    ``quiet`` suppresses the per-diagnostic lines and keeps only the
    summary — the contract of the CLI ``--quiet`` flag.
    """
    ordered = sort_diagnostics(diags)
    lines = [] if quiet else [d.render() for d in ordered]
    lines.append(summary_line(diags, subjects, unit))
    return "\n".join(lines)


def render_json(diags: Sequence[Diagnostic], subjects: int, unit: str) -> str:
    """Machine-readable report with a stable top-level schema."""
    counts = count_by_severity(diags)
    payload = {
        "diagnostics": [d.to_dict() for d in sort_diagnostics(diags)],
        "summary": {
            "errors": counts[Severity.ERROR],
            "warnings": counts[Severity.WARN],
            "infos": counts[Severity.INFO],
            "subjects": subjects,
            "unit": unit,
        },
    }
    return json.dumps(payload, indent=2)


__all__ = [
    "Severity",
    "Diagnostic",
    "sort_diagnostics",
    "count_by_severity",
    "has_errors",
    "summary_line",
    "render_text",
    "render_json",
]
