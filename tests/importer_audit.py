"""List public top-level names of ``src/repro`` that nothing outside the
tests uses.

A script, not a test module (pytest does not collect it).  Run it from the
repository root::

    python tests/importer_audit.py

A *name* is a top-level function, class or assignment target of a module
under ``src/repro`` whose name does not start with ``_``.  It counts as
used when some Python file under ``src/``, ``benchmarks/``, ``examples/``
or ``perfbench/`` loads it (a name or an attribute, or a word of a string
that is not a docstring, such as perfbench's ``module:Class.method`` entry
points), or when a word of a Markdown file under ``docs/`` names it.
Imports, ``__all__`` lists and docstrings do not count: a re-export or a
mention in prose is not a user.  Matching is by bare name, so a name
shared with an unrelated use elsewhere hides it; the list errs towards
too short.

Prints one ``module:name`` line per unused name, then their count.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTHON_DIRS = ("src", "benchmarks", "examples", "perfbench")
DOC_DIRS = ("docs",)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_names(tree: ast.Module) -> list[str]:
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def _docstrings(tree: ast.Module) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for t in (node.targets if isinstance(node, ast.Assign)
                  else [node.target])
    )


def _python_uses(tree: ast.Module) -> set[str]:
    docstrings = _docstrings(tree)
    used: set[str] = set()
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            used.update(WORD.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return used


def audit(root: Path = ROOT) -> list[str]:
    """``module:name`` of each unused public name, sorted."""
    package = root / "src" / "repro"
    used: set[str] = set()
    for directory in PYTHON_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            used |= _python_uses(ast.parse(path.read_text(), str(path)))
    for directory in DOC_DIRS:
        for path in sorted((root / directory).rglob("*.md")):
            used.update(WORD.findall(path.read_text()))
    unused = []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        unused += [
            f"{module}:{name}" for name in _public_names(tree)
            if name not in used
        ]
    return sorted(unused)


def main() -> int:
    unused = audit()
    for line in unused:
        print(line)
    print(f"{len(unused)} public top-level name(s) used by nothing "
          f"outside the tests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
