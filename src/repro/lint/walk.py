"""AST traversal shared by the DET, CON and PERF lint domains.

:class:`Visitor` is an :class:`ast.NodeVisitor` that visits the same
nodes in the same order, with two savings:

* ``visit`` looks up ``visit_<NodeClass>`` once per (visitor class, node
  class) and keeps the answer in a table of the visitor class, instead of
  building and resolving the method name at every node;
* ``generic_visit`` never descends into a *barren* child — a node that
  holds no AST except other barren nodes (expression contexts,
  operators, ``Name``, ``Constant``, ``alias``) — unless the visitor
  defines a method for that child's class or for a class it can hold.
  Such a subtree can reach no ``visit_*`` method, so skipping it changes
  nothing a visitor records; about two thirds of a module's nodes are
  barren.

:func:`walk` yields exactly the nodes :func:`ast.walk` yields, in the
same breadth-first order, without a nested generator per node.

This module imports nothing from :mod:`repro`, so it can be loaded by
file path on an interpreter without the package's dependencies.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

#: The stdlib's deprecated ``visit_Constant`` shim (it forwards to
#: ``visit_Num``/``visit_Str``/...); newer Pythons drop it.  A visitor
#: that inherits it defines no ``visit_Constant`` of its own.
_CONSTANT_SHIM = getattr(ast.NodeVisitor, "visit_Constant", None)

#: Barren node class -> the classes it can hold (all barren themselves).
_BARREN: dict[type, tuple[type, ...]] = {
    **{cls: () for base in (ast.expr_context, ast.boolop, ast.operator,
                            ast.unaryop, ast.cmpop)
       for cls in base.__subclasses__()},
    ast.Constant: (),
    ast.alias: (),
    ast.Name: tuple(ast.expr_context.__subclasses__()),
}


def _ignore(visitor: ast.NodeVisitor, node: ast.AST) -> None:
    return None


def _method(visitor_cls: type, node_cls: type) -> Callable | None:
    method = getattr(visitor_cls, "visit_" + node_cls.__name__, None)
    return None if method is _CONSTANT_SHIM else method


class Visitor(ast.NodeVisitor):
    """:class:`ast.NodeVisitor` with per-class dispatch tables that skips
    barren subtrees no method of the visitor can see."""

    #: node class -> the function ``visit`` calls with ``(self, node)``;
    #: one table per visitor class, filled on first sight of a node class.
    _table: dict[type, Callable] = {}
    #: barren node classes this visitor class never visits.
    _barren: frozenset[type] = frozenset(_BARREN)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}
        cls._barren = frozenset(
            node_cls for node_cls, holds in _BARREN.items()
            if all(_method(cls, c) is None for c in (node_cls, *holds)))

    def visit(self, node: ast.AST) -> object:
        try:
            method = self._table[node.__class__]
        except KeyError:
            method = self._dispatch(node.__class__)
        return method(self, node)

    def _dispatch(self, node_cls: type) -> Callable:
        cls = type(self)
        method = _method(cls, node_cls)
        if method is None:
            method = _ignore if node_cls in cls._barren else cls.generic_visit
        cls._table[node_cls] = method
        return method

    def generic_visit(self, node: ast.AST) -> None:
        barren = self._barren
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST) and (
                        item.__class__ not in barren
                    ):
                        self.visit(item)
            elif isinstance(value, ast.AST) and value.__class__ not in barren:
                self.visit(value)


def walk(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node``, itself included, in :func:`ast.walk`'s
    breadth-first order."""
    todo = [node]
    push = todo.append
    for node in todo:  # the loop also reaches the nodes pushed meanwhile
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        push(item)
            elif isinstance(value, ast.AST):
                push(value)
        yield node


__all__ = ["Visitor", "walk"]
