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
Imports, ``__all__`` lists, a package's own PEP 562 name table (its
``_EXPORTS`` dict of ``name -> submodule``) and docstrings do not count: a
re-export or a mention in prose is not a user.

The audit is transitive: a load inside the top-level definition of a
listed name does not count either, so a name whose only users are the
bodies of listed names (a helper class of a dead function) is listed too.
A load in any other top-level statement of ``src/repro``, including the
body of a private (``_``) definition, always counts.  A definition that
names itself (a recursive call, an assignment's own target) is never
listed.  Matching is by bare name, so a name shared with an unrelated use
elsewhere hides it; the list errs towards too short.

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


def _public_names(node: ast.stmt) -> list[str]:
    """Public names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
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


#: Module-level names whose value re-exports names: ``__all__`` and the
#: PEP 562 name table a package ``__getattr__`` resolves from.
REEXPORTS = ("__all__", "_EXPORTS")


def _is_reexport(node: ast.AST) -> bool:
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id in REEXPORTS
        for t in (node.targets if isinstance(node, ast.Assign)
                  else [node.target])
    )


def _loads(node: ast.AST, docstrings: set[int]) -> set[str]:
    used: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_reexport(node):
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


def _module(root: Path, path: Path) -> str | None:
    """Dotted name of a module under ``src/repro``, else ``None``."""
    relative = path.relative_to(root)
    if relative.parts[:2] != ("src", "repro"):
        return None
    return ".".join(relative.with_suffix("").parts[1:])


def audit(root: Path = ROOT) -> list[str]:
    """``module:name`` of each unused public name, sorted."""
    # Bare name -> the owners of its loads.  An owner is the set of
    # ``module:name`` a top-level statement defines; an empty owner (a
    # file outside the package, a doc, any other statement) always counts.
    users: dict[str, set[frozenset[str]]] = {}
    defined: list[str] = []
    for directory in PYTHON_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            module = _module(root, path)
            tree = ast.parse(path.read_text(), str(path))
            docstrings = _docstrings(tree)
            for node in tree.body:
                names = _public_names(node) if module else []
                owner = frozenset(f"{module}:{name}" for name in names)
                defined += owner
                for used in _loads(node, docstrings):
                    users.setdefault(used, set()).add(owner)
    for directory in DOC_DIRS:
        for path in sorted((root / directory).rglob("*.md")):
            for used in WORD.findall(path.read_text()):
                users.setdefault(used, set()).add(frozenset())
    unused: set[str] = set()
    grown = True
    while grown:
        grown = False
        for qualified in defined:
            name = qualified.partition(":")[2]
            if qualified not in unused and all(
                owner and owner <= unused
                for owner in users.get(name, ())
            ):
                unused.add(qualified)
                grown = True
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
