"""One parsed program, shared by the DET, CON and PERF lint domains.

This module alone finds, reads, decodes and parses source files, so
``repro lint --domain all`` parses each file once.  Each file is read
once as bytes and decoded from those bytes the way Python decodes source
(a PEP 263 coding cookie or a UTF-8 BOM, else UTF-8; never the locale),
exactly as :func:`tokenize.open` would.  A file that cannot be read or
does not parse stays in the :class:`Program` as a failed record, which
each domain reports under its own ``xxx000`` rule.

:meth:`Program.load` returns the same object for an unchanged tree: the
last :data:`PROGRAM_CACHE_SIZE` loads are kept, keyed by every file's
name and bytes, so the path entry points of all three domains share one
parse, one suppression index per file and one call graph.  A load that
meets a file it cannot read is never kept.

Every :class:`Program` is built with the cyclic garbage collector paused
and its objects tenured afterwards (:func:`_tenured`).  A parsed
``src/repro`` holds about 189k AST objects, and each young collection
during the build, then each full one after it, re-traversed them: on
Python 3.11 that was about 30 % of a ``repro lint --domain all`` pass
(273/25/2 collections by generation, 130-200 ms of a 460-760 ms pass
over perfbench's corpus; the two full collections alone 134-155 ms).
Tenured, the pass runs no full collection and spends a few ms in the
collector.  Python 3.12 ran only one full collection per pass, so the
gain there is smaller (5-8 %).
"""

from __future__ import annotations

import ast
import contextlib
import functools
import gc
import io
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.caching import LRUCache
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


def _read(path: Path) -> tuple[str, bytes | OSError]:
    """The file's name and bytes, or why it could not be opened."""
    try:
        return str(path), path.read_bytes()
    except OSError as exc:
        return str(path), exc


def _decode(name: str, data: bytes) -> str:
    """``data`` decoded as :func:`tokenize.open` decodes the file ``name``."""
    buffer = io.BytesIO(data)
    buffer.name = name  # detect_encoding names the file in its errors
    encoding, _ = tokenize.detect_encoding(buffer.readline)
    buffer.seek(0)
    return io.TextIOWrapper(buffer, encoding).read()


def _unreadable(name: str, exc: Exception) -> SourceFile:
    return SourceFile(name, None, error=(name, f"cannot read file: {exc}"))


def _load(name: str, data: bytes | OSError) -> SourceFile:
    if isinstance(data, OSError):
        return _unreadable(name, data)
    try:
        source = _decode(name, data)
    except (SyntaxError, UnicodeDecodeError) as exc:
        # SyntaxError: a bad coding cookie, or non-UTF-8 bytes without one
        return _unreadable(name, exc)
    return _parse(name, source)


@contextlib.contextmanager
def _tenured():
    """Build a :class:`Program` with the cyclic collector paused, then move
    everything allocated into the oldest generation without traversing it.

    ``gc.freeze()`` then ``gc.unfreeze()`` is that move, and it does not
    count towards the next full collection.  The parsed trees and the
    call graph hold no cycles, so refcounting frees them with their
    :class:`Program`; a cycle elsewhere is still found by the next full
    collection.  Two simpler designs were measured and rejected:
    pausing alone leaves the backlog to the next young collections (one
    gen0 over every tree, 46 ms, then one gen1, 115 ms), and
    ``gc.freeze()`` alone never traverses what it froze again, so once a
    later build froze an ``analyzer``'s cycles, they and the trees they
    hold were never freed: about 35 MB leaked per evicted program.

    Only the state changed here is restored: a caller that disabled the
    collector keeps it disabled, and a caller that froze objects itself
    (``gc.get_freeze_count()`` non-zero) keeps them frozen, unmoved.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


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
        """Every ``.py`` file under ``paths``; a missing one is a failure.

        The same object as a recent load whose files had the same names
        and bytes, in the same order; a load with an unreadable file is
        built afresh and not kept, so a file that becomes readable is
        read."""
        files = tuple(_read(f) for f in iter_python_files(paths))

        def build() -> Program:
            with _tenured():
                return cls(tuple(_load(name, data) for name, data in files))

        if any(isinstance(data, OSError) for _, data in files):
            return build()
        return PROGRAM_CACHE.get_or_compute(files, build)

    @classmethod
    def from_sources(cls, items: Iterable[tuple[str, str]]) -> Program:
        """``(path, source)`` pairs, e.g. fixture snippets."""
        with _tenured():
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


#: Loads kept by :meth:`Program.load`.  A kept ``src/repro`` program,
#: call graph included, holds about 35 MB.
PROGRAM_CACHE_SIZE = 4

#: ``((name, bytes), ...)`` in :func:`iter_python_files` order -> the
#: :class:`Program` parsed from exactly those bytes.
PROGRAM_CACHE: LRUCache[tuple[tuple[str, bytes], ...], Program] = LRUCache(
    PROGRAM_CACHE_SIZE)


__all__ = ["PROGRAM_CACHE", "Program", "SourceFile", "iter_python_files"]
