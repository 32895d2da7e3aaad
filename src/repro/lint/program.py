"""One parsed program, shared by the DET, CON and PERF lint domains.

This module alone finds, reads, decodes and parses source files, so
``repro lint --domain all`` parses each file once.  Sources are decoded
the way Python decodes them (a PEP 263 coding cookie or a UTF-8 BOM, else
UTF-8; never the locale).  A file that cannot be read or does not parse
stays in the :class:`Program` as a failed record, which each domain
reports under its own ``xxx000`` rule.
"""

from __future__ import annotations

import ast
import functools
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.diagnostics import Diagnostic, Severity
from repro.lint.suppress import SuppressionIndex


@dataclass(frozen=True, eq=False)
class SourceFile:
    """One file.  ``tree`` and ``suppress`` are None exactly when
    ``error`` holds the ``(location, message)`` of its failure, and
    ``source`` is None when it could not be read at all."""

    path: str
    source: str | None
    tree: ast.Module | None = None
    error: tuple[str, str] | None = None
    suppress: SuppressionIndex | None = None


def _parse(path: str, source: str) -> SourceFile:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return SourceFile(path, source, error=(
            f"{path}:{exc.lineno or 1}", f"syntax error: {exc.msg}"))
    return SourceFile(path, source, tree, suppress=SuppressionIndex(source))


def _read(path: Path) -> SourceFile:
    try:
        with tokenize.open(path) as fh:
            source = fh.read()
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        # SyntaxError: a bad coding cookie, or non-UTF-8 bytes without one
        return SourceFile(str(path), None,
                          error=(str(path), f"cannot read file: {exc}"))
    return _parse(str(path), source)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    found: list[Path] = []
    for entry in map(Path, paths):
        found += sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]
    return list(dict.fromkeys(found))


@dataclass(frozen=True, eq=False)
class Program:
    """The files of one lint run, each read and parsed once.

    The domains only read it: each judges only its own rule prefix in the
    shared suppression indexes, so domain order and reruns change nothing.
    """

    files: tuple[SourceFile, ...]

    @classmethod
    def load(cls, paths: Iterable[str | Path]) -> Program:
        """Every ``.py`` file under ``paths``; a missing one is a failure."""
        return cls(tuple(_read(f) for f in iter_python_files(paths)))

    @classmethod
    def from_sources(cls, items: Iterable[tuple[str, str]]) -> Program:
        """``(path, source)`` pairs, e.g. fixture snippets."""
        return cls(tuple(_parse(path, source) for path, source in items))

    @property
    def n_files(self) -> int:
        """Files read; one that does not parse still counts."""
        return sum(f.source is not None for f in self.files)

    @property
    def parsed(self) -> list[SourceFile]:
        return [f for f in self.files if f.tree is not None]

    def failures(self, rule: str) -> list[Diagnostic]:
        """A ``rule`` error for each file that could not be read or parsed."""
        return [Diagnostic(rule, Severity.ERROR, *f.error)
                for f in self.files if f.error is not None]

    @functools.cached_property
    def analyzer(self):
        """The collected and scanned call graph that the CON and PERF
        domains share, built on first use."""
        from repro.analysis.concurrency import _Analyzer

        return _Analyzer(self)


__all__ = ["Program", "SourceFile", "iter_python_files"]
