"""Determinism-hazard linter for this repository's own code.

PR 1 made byte-identical parallel campaigns a core guarantee: every noise
draw is seeded from measurement identity (``hardware/noise.py::point_seed``)
and every memo is a bounded, observable ``repro.caching.LRUCache``.  Nothing
*static* kept it that way — until this package.  It is a custom AST pass
(stdlib :mod:`ast`, no third-party dependency) with rules tuned to the
specific hazards that would silently break reproducibility or scalability:

* ``DET001`` — unseeded module-level ``random`` / ``numpy.random`` calls
* ``DET002`` — ``functools.lru_cache`` / ``functools.cache`` (unbounded or
  unobservable memoisation)
* ``DET003`` — float ``==`` / ``!=`` on computed runtimes
* ``DET004`` — mutable default arguments
* ``DET005`` — wall-clock reads (``time.time`` / ``datetime.now``) in
  measurement paths
* ``DET006`` — ``numpy.linalg.lstsq`` without an explicit ``rcond=``
  (the silent rank-truncation default differs across numpy versions)

Findings are :class:`repro.diagnostics.Diagnostic` records located by
``file:line``.  Suppress a finding with a trailing
``# repro-lint: disable=DET00X`` comment on the offending line; a
suppression whose rule no longer fires is itself reported as ``SUP001``
(see :mod:`repro.lint.suppress`, shared with the concurrency analyzer in
:mod:`repro.analysis.concurrency`).  All three domains run over one
:class:`~repro.lint.program.Program`, so a file is parsed once per run.
"""

from repro.lint.program import Program
from repro.lint.rules import (
    LINT_RULES,
    LintRule,
    lint_paths,
    lint_program,
    lint_source,
)
from repro.lint.suppress import STALE_RULE, SuppressionIndex
from repro.diagnostics import Diagnostic, Severity

__all__ = [
    "Diagnostic",
    "Severity",
    "LintRule",
    "LINT_RULES",
    "Program",
    "STALE_RULE",
    "SuppressionIndex",
    "lint_paths",
    "lint_program",
    "lint_source",
]
