"""Shared suppression-comment machinery for the source linters.

Both AST-based linters — the determinism linter (:mod:`repro.lint.rules`,
``DET0xx``) and the concurrency-hazard analyzer
(:mod:`repro.analysis.concurrency`, ``CON0xx``) — silence a finding with
the same trailing comment on the report line::

    start = time.time()  # repro-lint: disable=DET005

This module owns that convention so the two fronts cannot drift:

* :class:`SuppressionIndex` parses one file's *genuine* comment tokens
  (via :mod:`tokenize`, so a suppression spelled inside a docstring or
  string literal — as in documentation examples — does not count) and
  answers ``is_suppressed(lineno, rule)`` queries;
* every successful query is recorded, and :meth:`SuppressionIndex.stale`
  reports the entries that never matched a finding — a suppression whose
  rule no longer fires is a lie about the code and is itself reported as
  a ``SUP001`` WARNING by whichever linter owns the rule prefix.

Each linter passes its own rule prefix(es) to the stale check, so a
``disable=CON008`` comment is only judged by the concurrency analyzer and
``disable=DET005`` only by the determinism linter — a file can carry both
without cross-domain noise.
"""

from __future__ import annotations

import io
import re
import tokenize

from repro.diagnostics import Diagnostic, Severity

#: The suppression comment syntax; multiple rules separate with commas.
SUPPRESS_PATTERN = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9_,\s]+)")

#: Rule id of the stale-suppression finding (shared framework rule).
STALE_RULE = "SUP001"


def iter_comment_tokens(source: str) -> list[tuple[int, str]]:
    """``(lineno, comment_text)`` for every real comment token.

    Tokenisation failures (the linters report those as parse errors under
    their own ``xxx000`` rule) yield whatever comments were seen before
    the failure — never an exception.
    """
    comments: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


class SuppressionIndex:
    """Per-file index of ``# repro-lint: disable=RULE`` comments."""

    def __init__(self, source: str) -> None:
        self._rules_by_line: dict[int, set[str]] = {}
        self._used: set[tuple[int, str]] = set()
        if "repro-lint" not in source:
            # SUPPRESS_PATTERN cannot match; skip tokenizing the file.
            return
        for lineno, comment in iter_comment_tokens(source):
            match = SUPPRESS_PATTERN.search(comment)
            if match:
                rules = {
                    r.strip()
                    for r in match.group(1).split(",")
                    if r.strip()
                }
                if rules:
                    self._rules_by_line.setdefault(lineno, set()).update(
                        rules
                    )

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        """True when ``rule`` is disabled on ``lineno``; marks the entry
        as used so it will not be reported stale."""
        if rule in self._rules_by_line.get(lineno, ()):
            self._used.add((lineno, rule))
            return True
        return False

    def stale(self, prefixes: tuple[str, ...]) -> list[tuple[int, str]]:
        """``(lineno, rule)`` entries matching ``prefixes`` that never
        suppressed a finding, in line order."""
        found = []
        for lineno, rules in sorted(self._rules_by_line.items()):
            for rule in sorted(rules):
                if rule.startswith(prefixes) and (
                    (lineno, rule) not in self._used
                ):
                    found.append((lineno, rule))
        return found

    def stale_diagnostics(
        self, path: str, prefixes: tuple[str, ...]
    ) -> list[Diagnostic]:
        """The ``SUP001`` findings for this file, respecting an explicit
        ``disable=SUP001`` on the stale comment's own line."""
        diags = []
        for lineno, rule in self.stale(prefixes):
            if self.is_suppressed(lineno, STALE_RULE):
                continue
            diags.append(
                Diagnostic(
                    STALE_RULE,
                    Severity.WARN,
                    f"{path}:{lineno}",
                    f"stale suppression: rule {rule} never fires on "
                    "this line",
                    hint="the hazard was fixed or the id is a typo — "
                    "delete the comment so real suppressions stay "
                    "auditable",
                )
            )
        return diags


__all__ = [
    "SUPPRESS_PATTERN",
    "STALE_RULE",
    "SuppressionIndex",
    "iter_comment_tokens",
]
