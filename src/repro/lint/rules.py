"""AST implementation of the determinism lint rules.

One :class:`ast.NodeVisitor` pass per file.  Import aliases are resolved
first (``import numpy as np`` / ``from functools import lru_cache as lc``)
so the rules match the *canonical* dotted name being called, not its local
spelling.  Every rule id, severity, and example lives in
``docs/static-analysis.md``.

Suppression comments are handled by the shared
:class:`repro.lint.suppress.SuppressionIndex`; a ``DET``-prefixed
suppression that no longer matches any finding is reported here as a
stale-suppression ``SUP001`` WARNING.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.lint.program import Program
from repro.lint.suppress import STALE_RULE, SuppressionIndex

_UNBOUNDED_CACHES = frozenset({"functools.lru_cache", "functools.cache"})

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today",
})

#: Identifier segments that mark an operand as a computed runtime.
_TIMING_SEGMENTS = frozenset({
    "t", "time", "times", "runtime", "runtimes", "latency", "latencies",
    "seconds", "secs", "elapsed", "duration", "durations",
})

def _dotted_name(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _terminal_identifier(node: ast.expr) -> str | None:
    """The last identifier of an operand (``x.t_fwd`` → ``t_fwd``,
    ``measure()`` → ``measure``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_timing_name(name: str | None) -> bool:
    if not name:
        return False
    return any(seg in _TIMING_SEGMENTS for seg in name.lower().split("_"))


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: str, suppress: SuppressionIndex) -> None:
        self.path = path
        self.suppress = suppress
        #: local alias -> canonical dotted module/name prefix.
        self.aliases: dict[str, str] = {}
        self.found: list[Diagnostic] = []

    # -- plumbing ----------------------------------------------------------

    def _report(
        self, node: ast.AST, rule: str, severity: Severity, message: str,
        hint: str = "",
    ) -> None:
        lineno = getattr(node, "lineno", 1)
        if self.suppress.is_suppressed(lineno, rule):
            return
        self.found.append(
            Diagnostic(rule, severity, f"{self.path}:{lineno}", message, hint)
        )

    def _canonical(self, node: ast.expr) -> str | None:
        """Resolve a name expression through the import aliases."""
        parts = _dotted_name(node)
        if parts is None:
            return None
        head = self.aliases.get(parts[0])
        if head is None:
            return None
        return ".".join([head, *parts[1:]])

    # -- import tracking ---------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = canonical
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- DET002 / DET005: hazardous calls ---------------------------------

    def _check_callable_ref(self, node: ast.expr) -> None:
        canonical = self._canonical(node)
        if canonical in _UNBOUNDED_CACHES:
            self._report(
                node, "DET002", Severity.ERROR,
                f"{canonical} is unbounded/unobservable memoisation",
                hint="use repro.caching.LRUCache: a hard maxsize plus "
                "hit/miss/eviction counters campaigns can report",
            )
        elif canonical in _WALL_CLOCK:
            self._report(
                node, "DET005", Severity.ERROR,
                f"wall-clock read {canonical}() in a measurement path",
                hint="simulated measurements must be functions of the "
                "point identity; for elapsed-time observability use "
                "time.perf_counter",
            )

    def visit_Call(self, node: ast.Call) -> None:
        self._check_callable_ref(node.func)
        self._check_lstsq(node)
        self.generic_visit(node)

    # -- DET006: lstsq without an explicit rcond ---------------------------

    def _check_lstsq(self, node: ast.Call) -> None:
        if self._canonical(node.func) != "numpy.linalg.lstsq":
            return
        # rcond is the third positional parameter; either spelling counts
        # as explicit.
        explicit = len(node.args) >= 3 or any(
            kw.arg == "rcond" for kw in node.keywords
        )
        if not explicit:
            self._report(
                node, "DET006", Severity.WARN,
                "numpy.linalg.lstsq call without an explicit rcond=",
                hint="pass rcond=None (or a chosen cutoff); the default "
                "rank-truncation threshold changed across numpy versions, "
                "so the implicit value silently alters fitted coefficients",
            )

    def _check_decorators(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for dec in node.decorator_list:
            # Bare `@lru_cache` never passes through visit_Call.
            if not isinstance(dec, ast.Call):
                self._check_callable_ref(dec)

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_decorators(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- DET003: float equality on computed runtimes -----------------------

    def _is_float_hazard_operand(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            # `x == 0.0` is the exact-degenerate-value guard idiom
            # (zero variance, zero span); only nonzero literals are
            # genuinely tolerance-sensitive.
            return node.value != 0.0
        return _is_timing_name(_terminal_identifier(node))

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if self._is_float_hazard_operand(left) or (
                self._is_float_hazard_operand(right)
            ):
                self._report(
                    node, "DET003", Severity.WARN,
                    "exact ==/!= comparison involving a float or a "
                    "computed runtime",
                    hint="use math.isclose / a tolerance; exact float "
                    "equality on measured times is platform-dependent",
                )
        self.generic_visit(node)


def lint_program(program: Program) -> list[Diagnostic]:
    """Lint every file of ``program``; most severe findings first.
    Files that could not be read or parsed are ``DET000`` errors."""
    found = program.failures("DET000")
    for f in program.parsed:
        linter = _FileLinter(f.path, f.suppress)
        linter.visit(f.tree)
        found.extend(linter.found)
        found.extend(f.suppress.stale_diagnostics(f.path, ("DET",)))
    return sort_diagnostics(found)


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one module's source text; most severe findings first."""
    return lint_program(Program.from_sources([(path, source)]))


def lint_paths(paths: Iterable[str | Path]) -> tuple[list[Diagnostic], int]:
    """Lint every ``.py`` file under ``paths``.

    Returns ``(diagnostics, n_files)`` so callers can report how much was
    actually scanned (an empty directory is "clean" in a useless way).
    Missing paths are reported as ``DET000`` errors rather than raised, so
    a typo in CI fails the job with a diagnostic instead of a traceback.
    """
    program = Program.load(paths)
    return lint_program(program), program.n_files


@dataclass(frozen=True)
class LintRule:
    """Registry record of one lint rule (the docs catalogue renders these)."""

    rule: str
    severity: Severity
    title: str


LINT_RULES: tuple[LintRule, ...] = (
    LintRule("DET000", Severity.ERROR, "unparseable/unreadable file"),
    LintRule("DET002", Severity.ERROR,
             "functools.lru_cache / cache instead of bounded LRUCache"),
    LintRule("DET003", Severity.WARN,
             "float ==/!= on computed runtimes"),
    LintRule("DET005", Severity.ERROR,
             "wall-clock read in a measurement path"),
    LintRule("DET006", Severity.WARN,
             "numpy.linalg.lstsq without an explicit rcond="),
    LintRule(STALE_RULE, Severity.WARN,
             "stale repro-lint suppression comment"),
)
