"""Shared suppression-comment machinery for the source linters.

All three AST-based domains — determinism (:mod:`repro.lint.rules`,
``DET0xx``), concurrency (:mod:`repro.analysis.concurrency`, ``CON0xx``)
and performance (:mod:`repro.analysis.perf`, ``PERF0xx``) — silence a
finding with the same trailing comment on the report line::

    start = time.time()  # repro-lint: disable=DET005

This module owns that convention so the domains cannot drift:

* :class:`SuppressionIndex` parses one file's *genuine* comment tokens
  (via :mod:`tokenize`, so a suppression spelled inside a docstring or
  string literal — as in documentation examples — does not count) and
  answers ``is_suppressed(lineno, rule)`` queries;
* every successful query is recorded, and
  :meth:`SuppressionIndex.stale_diagnostics` reports the entries that
  never matched a finding — a suppression whose rule no longer fires is a
  lie about the code and is itself reported as a ``SUP001`` WARNING by
  whichever domain owns the rule prefix.

Each domain passes its own rule prefix(es) to the stale check, so a
``disable=CON008`` comment is only judged by the concurrency analyzer and
``disable=DET005`` only by the determinism linter — a file can carry both
without cross-domain noise, and the domains can share one index per file
(:class:`repro.lint.program.Program`) in any order.
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


class SuppressionIndex:
    """Per-file index of ``# repro-lint: disable=RULE`` comments."""

    def __init__(self, source: str) -> None:
        self._rules_by_line: dict[int, set[str]] = {}
        self._used: set[tuple[int, str]] = set()
        if "repro-lint" not in source:
            # SUPPRESS_PATTERN cannot match; skip tokenizing the file.
            return
        # No comment past the last line naming the marker can match (a
        # comment never spans lines; readline splits only on "\n"), so
        # tokenizing stops there.
        last = source.count("\n", 0, source.rfind("repro-lint")) + 1
        try:
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.start[0] > last:
                    break
                if tok.type != tokenize.COMMENT:
                    continue
                match = SUPPRESS_PATTERN.search(tok.string)
                rules = {r.strip() for r in match.group(1).split(",")
                         if r.strip()} if match else set()
                if rules:
                    self._rules_by_line.setdefault(
                        tok.start[0], set()).update(rules)
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # The domains report unparseable files under their own
            # ``xxx000`` rule; keep the comments seen before the failure.
            pass

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        """True when ``rule`` is disabled on ``lineno``; marks the entry
        as used so it will not be reported stale."""
        if rule in self._rules_by_line.get(lineno, ()):
            self._used.add((lineno, rule))
            return True
        return False

    def stale_diagnostics(
        self, path: str, prefixes: tuple[str, ...]
    ) -> list[Diagnostic]:
        """``SUP001`` for each entry matching ``prefixes`` that never
        suppressed a finding, in line order, respecting an explicit
        ``disable=SUP001`` on the stale comment's own line."""
        diags = []
        for lineno, rules in sorted(self._rules_by_line.items()):
            for rule in sorted(rules):
                if (
                    not rule.startswith(prefixes)
                    or (lineno, rule) in self._used
                    or self.is_suppressed(lineno, STALE_RULE)
                ):
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
]
