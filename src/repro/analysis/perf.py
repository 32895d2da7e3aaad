"""Hot-path performance analyzer (PERF0xx).

The paper's value proposition is *cheap* analytic prediction — the
campaign, profile and serve paths must run at sweep scale, so slow code
on those paths is a correctness-of-purpose bug even when the output is
right.  This module applies the repo's static-analysis philosophy to
throughput: a whole-program pass (reusing the concurrency analyzer's
module collection, type inference and call graph) marks **hot roots** —
the campaign point loop, graph profiling, pass-pipeline execution, model
prediction, the ``/predict`` handler and the scaling-curve evaluators —
propagates hotness transitively over the call graph, and then checks
every hot function for the classic scalar-Python-over-numpy sins:

========  ======  ====================================================
rule      level   finding
========  ======  ====================================================
PERF000   ERROR   unparseable/unreadable file
PERF001   ERROR   per-element indexing/iteration over a numpy array in
                  a hot loop (scalarized math that should be vectorized)
PERF002   ERROR   numpy array allocation (``np.array``/``zeros``/
                  ``concatenate``/``append``…) inside a hot loop
PERF004   ERROR   list-accumulate-then-``np.array`` where a preallocated
                  buffer or a single stack suffices
PERF006   WARN    unbatched per-point predict/profile call inside a
                  sweep that has a batched equivalent
PERF008   WARN    exception handling or logging work in a hot loop
========  ======  ====================================================

Hot roots come from three sources: a fixed table of hot entry points by
name (``_measure_grid``, ``zoo_profile``, ``predict_one`` …), methods
of request-handler/threaded classes (the serve path), ``run`` methods of
``*Pipeline`` classes, and an explicit ``# repro-perf: hot`` marker on
(or directly above) a ``def`` line for code the tables cannot know.

Suppressions use the shared ``repro.lint.suppress`` framework
(``# repro-lint: disable=PERF001``); unused ``PERF`` suppressions are
reported as SUP001, and every in-repo suppression must carry a
justification comment (see ``docs/static-analysis.md``).

Known, documented blind spots (kept deliberate; see the docs):
comprehensions are not treated as loops; arrays reaching a function
through untyped (unannotated) parameters are invisible to PERF001/002.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.concurrency import (
    _AMBIGUOUS_METHODS,
    _Analyzer,
    _FuncInfo,
    _dotted_name,
)
from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.lint.program import Program
from repro.lint.rules import LintRule
from repro.lint.walk import Visitor, walk

# --------------------------------------------------------------------------
# hot-root tables
# --------------------------------------------------------------------------

#: Explicit opt-in marker for code the name tables cannot know about.
_HOT_MARKER = re.compile(r"#\s*repro-perf:\s*hot\b")

#: Function/method names that *are* the hot paths of this repo (and of
#: its fixtures): the campaign point loop, profiling, prediction, the
#: serve handler and the scaling-curve evaluators.
_HOT_ROOT_NAMES: dict[str, str] = {
    "_measure_grid": "campaign grid measurement",
    "run_campaign": "campaign sweep driver",
    "trace_campaign": "campaign trace driver",
    "profile_graph": "graph profiling",
    "zoo_profile": "zoo profiling",
    "graph_record": "graph record lookup",
    "layer_times": "roofline kernel",
    "measure_inference": "simulated measurement",
    "measure_training_step": "simulated measurement",
    "predict": "model prediction",
    "predict_one": "model prediction",
    "predict_configs": "batched model prediction",
    "answer_request": "serve /predict handler",
    "node_scaling_curve": "scaling-curve evaluator",
    "strong_scaling_curve": "scaling-curve evaluator",
    "batch_scaling_curve": "scaling-curve evaluator",
}

# --------------------------------------------------------------------------
# numpy knowledge
# --------------------------------------------------------------------------

#: Canonical names whose call result is an ndarray.
_NP_ARRAY_RETURNING = frozenset({
    "numpy.array", "numpy.asarray", "numpy.zeros", "numpy.empty",
    "numpy.ones", "numpy.full", "numpy.arange", "numpy.linspace",
    "numpy.concatenate", "numpy.append", "numpy.stack", "numpy.vstack",
    "numpy.hstack", "numpy.column_stack", "numpy.where", "numpy.maximum",
    "numpy.minimum", "numpy.abs", "numpy.sqrt", "numpy.exp", "numpy.log",
    "numpy.cumsum", "numpy.sort", "numpy.clip", "numpy.empty_like",
    "numpy.zeros_like", "numpy.ones_like", "numpy.tile", "numpy.repeat",
})

#: Allocating constructors that should not run once per loop iteration.
_NP_ALLOCATORS = frozenset({
    "numpy.array", "numpy.zeros", "numpy.empty", "numpy.ones",
    "numpy.full", "numpy.arange", "numpy.linspace", "numpy.concatenate",
    "numpy.append", "numpy.stack", "numpy.vstack", "numpy.hstack",
    "numpy.column_stack", "numpy.tile", "numpy.repeat",
})

#: Allocators that additionally *copy the accumulated prefix* — calling
#: them once per iteration is O(n²), not just per-iteration overhead.
_NP_GROWERS = frozenset({"numpy.concatenate", "numpy.append"})

#: Canonical annotation spellings we treat as "is an ndarray".
_ARRAY_TYPES = frozenset({"numpy.ndarray"})

#: Stackers whose single-listcomp-argument form is the PERF004 shape.
_NP_STACKERS = frozenset({
    "numpy.array", "numpy.asarray", "numpy.stack", "numpy.vstack",
})

# --------------------------------------------------------------------------
# batchability knowledge for PERF006
# --------------------------------------------------------------------------

#: Per-point calls that have a batched equivalent in this repo; the hint
#: names the replacement.
_BATCHABLE: dict[str, str] = {
    "predict_one":
        "use the batched predict_configs() over the whole sweep",
    "zoo_profile":
        "profile once per model outside the sweep loop (the profile "
        "cache hides the cost only after the first miss)",
    "graph_record":
        "look the record up once per graph outside the sweep loop (the "
        "record cache hides the cost only after the first miss)",
    "profile_graph":
        "profile once per graph outside the sweep loop",
    "measure_inference":
        "multiply the whole batch sweep's clean-time and noise grids "
        "(SimulatedExecutor.clean_time_grids / noise_grids) as arrays and "
        "read each point's times from the product, as "
        "engine._measure_grid does",
    "measure_training_step":
        "multiply the whole batch sweep's clean-time and noise grids "
        "(SimulatedExecutor.clean_time_grids / noise_grids) as arrays and "
        "read each point's times from the product, as "
        "engine._measure_grid does",
}

#: Logging/printing entry points that do formatting work per call.
_LOGGING_CALLS = frozenset({
    "logging.debug", "logging.info", "logging.warning", "logging.error",
    "logging.exception", "logging.critical", "logging.log",
    "warnings.warn",
})
_LOGGING_METHODS = frozenset({
    "debug", "info", "warning", "error", "exception", "critical",
})


# --------------------------------------------------------------------------
# rules
# --------------------------------------------------------------------------

PERF_RULES: tuple[LintRule, ...] = (
    LintRule("PERF000", Severity.ERROR, "unparseable/unreadable file"),
    LintRule("PERF001", Severity.ERROR,
             "per-element indexing/iteration over a numpy array in a "
             "hot loop"),
    LintRule("PERF002", Severity.ERROR,
             "numpy array allocation inside a hot loop"),
    LintRule("PERF004", Severity.ERROR,
             "list-accumulate-then-np.array where a preallocated "
             "buffer or single stack suffices"),
    LintRule("PERF006", Severity.WARN,
             "unbatched per-point predict/profile call inside a sweep "
             "with a batched equivalent"),
    LintRule("PERF008", Severity.WARN,
             "exception handling or logging work in a hot loop"),
)


# --------------------------------------------------------------------------
# per-function scanner
# --------------------------------------------------------------------------


@dataclass
class _Loop:
    """One active ``for``/``while`` statement."""

    #: for-loop index/target names (empty for while)
    targets: set[str]
    flagged001: bool = False


class _PerfScanner(Visitor):
    """Evaluate the PERF rules over one *hot* function body."""

    def __init__(
        self, analyzer: _Analyzer, info: _FuncInfo, witness: str
    ) -> None:
        self.an = analyzer
        self.info = info
        self.module = info.module
        self.witness = witness
        self.found: list[Diagnostic] = []
        self._emitted: set[tuple[str, int]] = set()
        #: lines already claimed by a more specific rule (no PERF002 dup)
        self._claimed: set[int] = set()
        self.loops: list[_Loop] = []
        #: >0 while inside a raise/return statement — those exit the
        #: loop, so code under them runs at most once per function call.
        self._exit_depth = 0
        self.array_names: set[str] = set()
        self.class_types: dict[str, str] = {}
        self.empty_lists: set[str] = set()
        self.appended_in_loop: set[str] = set()
        self._bind_params()

    # -- setup ----------------------------------------------------------------

    def _bind_params(self) -> None:
        node = self.info.node
        for arg in [
            *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
        ]:
            if arg.arg in ("self", "cls") and self.info.cls is not None:
                self.class_types[arg.arg] = self.info.cls.key
                continue
            if arg.annotation is None:
                continue
            canon = self.an.annotation_canonical(arg.annotation, self.module)
            if canon in _ARRAY_TYPES:
                self.array_names.add(arg.arg)
            elif canon:
                cls_key = self.an.resolve_class(canon)
                if cls_key:
                    self.class_types[arg.arg] = cls_key

    def run(self) -> list[Diagnostic]:
        for stmt in self.info.node.body:
            self.visit(stmt)
        return self.found

    # -- reporting ------------------------------------------------------------

    def _emit(
        self,
        rule: str,
        severity: Severity,
        lineno: int,
        message: str,
        hint: str | None = None,
    ) -> None:
        if self.module.suppress.is_suppressed(lineno, rule):
            return
        key = (rule, lineno)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.found.append(
            Diagnostic(
                rule, severity,
                f"{self.module.path}:{lineno}",
                f"{message} [hot via {self.witness}]",
                hint=hint,
            )
        )

    # -- typing helpers -------------------------------------------------------

    def _call_canonical(self, call: ast.Call) -> str | None:
        parts = _dotted_name(call.func)
        if parts is None:
            return None
        if len(parts) == 1:
            return self.an.canonical(parts, self.module) or parts[0]
        return self.an.canonical(parts, self.module)

    def _resolve_call_target(self, call: ast.Call) -> str | None:
        canon = self._call_canonical(call)
        if canon:
            fkey = self.an.resolve_function(canon)
            if fkey:
                return fkey
        if isinstance(call.func, ast.Attribute):
            owner = self._expr_class(call.func.value)
            if owner:
                return self.an.resolve_method(owner, call.func.attr)
            if call.func.attr not in _AMBIGUOUS_METHODS:
                candidates = self.an.method_index.get(call.func.attr, [])
                if len(candidates) == 1:
                    return candidates[0]
        return None

    def _expr_class(self, expr: ast.expr) -> str | None:
        """Repo class key of an expression, or None."""
        if isinstance(expr, ast.Name):
            return self.class_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._expr_class(expr.value)
            if owner is not None:
                cls = self.an.class_index.get(owner)
                attr_type = cls.attr_types.get(expr.attr) if cls else None
                return (
                    self.an.resolve_class(attr_type) if attr_type else None
                )
            parts = _dotted_name(expr)
            if parts:
                canon = self.an.canonical(parts, self.module)
                if canon:
                    return self.an.global_type(canon)
            return None
        if isinstance(expr, ast.Call):
            canon = self._call_canonical(expr)
            return self.an.resolve_class(canon) if canon else None
        return None

    def _returns_array(self, call: ast.Call) -> bool:
        canon = self._call_canonical(call)
        if canon in _NP_ARRAY_RETURNING:
            return True
        fkey = self._resolve_call_target(call)
        if fkey:
            fn = self.an.funcs.get(fkey)
            if fn is not None and fn.node.returns is not None:
                returned = self.an.annotation_canonical(
                    fn.node.returns, fn.module
                )
                return returned in _ARRAY_TYPES
        return False

    def _is_array(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.array_names
        if isinstance(expr, ast.Attribute):
            owner = self._expr_class(expr.value)
            if owner is not None:
                cls = self.an.class_index.get(owner)
                if cls is not None:
                    return cls.attr_types.get(expr.attr) in _ARRAY_TYPES
            return False
        if isinstance(expr, ast.Call):
            return self._returns_array(expr)
        if isinstance(expr, ast.BinOp):
            return self._is_array(expr.left) or self._is_array(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._is_array(expr.operand)
        if isinstance(expr, ast.Subscript):
            return self._is_array(expr.value) and self._has_slice(expr.slice)
        return False

    @staticmethod
    def _has_slice(index: ast.expr) -> bool:
        if isinstance(index, ast.Slice):
            return True
        if isinstance(index, ast.Tuple):
            return any(isinstance(e, ast.Slice) for e in index.elts)
        return False

    # -- assignment tracking --------------------------------------------------

    def _track_assign(self, name: str, value: ast.expr | None) -> None:
        if value is None:
            self.array_names.discard(name)
            self.class_types.pop(name, None)
            return
        # Classify the value BEFORE dropping the old binding: assignments
        # like ``X = X[None, :]`` refer to the name being rebound, and the
        # right-hand side is typed under the *old* binding.
        is_array = self._is_array(value)
        self.array_names.discard(name)
        self.class_types.pop(name, None)
        if is_array:
            self.array_names.add(name)
        if isinstance(value, ast.List) and not value.elts:
            self.empty_lists.add(name)
        elif (
            isinstance(value, ast.Call)
            and _dotted_name(value.func) == ["list"]
            and not value.args
        ):
            self.empty_lists.add(name)
        else:
            self.empty_lists.discard(name)
        if isinstance(value, ast.Call):
            canon = self._call_canonical(value)
            cls_key = self.an.resolve_class(canon) if canon else None
            if cls_key:
                self.class_types[name] = cls_key

    # -- visitors -------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs are separate bodies with their own locals — the
        # loop context of the enclosing function does not apply.
        return

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def _mentions_array_extent(self, expr: ast.expr) -> str | None:
        """Name of a numpy array whose extent drives ``expr`` (a
        ``range()`` argument), e.g. ``len(X)`` / ``X.shape[1]``."""
        for sub in walk(expr):
            if (
                isinstance(sub, ast.Call)
                and _dotted_name(sub.func) == ["len"]
                and sub.args
                and self._is_array(sub.args[0])
            ):
                return ast.unparse(sub.args[0])
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr in ("shape", "size")
                and self._is_array(sub.value)
            ):
                return ast.unparse(sub.value)
        return None

    def visit_For(self, node: ast.For) -> None:
        flagged = False
        iterated = node.iter
        if isinstance(iterated, (ast.Name, ast.Attribute)) and self._is_array(
            iterated
        ):
            self._emit(
                "PERF001", Severity.ERROR, node.lineno,
                f"iterates numpy array {ast.unparse(iterated)!r} element "
                "by element",
                hint="replace the scalar loop with a vectorized array "
                "expression",
            )
            flagged = True
        elif isinstance(iterated, ast.Call):
            head = _dotted_name(iterated.func)
            if head == ["range"]:
                extent_of = None
                for arg in iterated.args:
                    extent_of = self._mentions_array_extent(arg)
                    if extent_of:
                        break
                if extent_of:
                    self._emit(
                        "PERF001", Severity.ERROR, node.lineno,
                        f"indexes numpy array {extent_of!r} one element "
                        "at a time via range()",
                        hint="replace the index loop with a vectorized "
                        "array expression",
                    )
                    flagged = True
            elif (
                head == ["enumerate"]
                and iterated.args
                and self._is_array(iterated.args[0])
            ):
                self._emit(
                    "PERF001", Severity.ERROR, node.lineno,
                    f"iterates numpy array "
                    f"{ast.unparse(iterated.args[0])!r} element by "
                    "element via enumerate()",
                    hint="replace the scalar loop with a vectorized "
                    "array expression",
                )
                flagged = True
        targets = {
            sub.id
            for sub in walk(node.target)
            if isinstance(sub, ast.Name)
        }
        # The iterable expression is evaluated once, before the first
        # iteration — visit it outside the loop context.
        self.visit(node.iter)
        self.loops.append(_Loop(targets, flagged))
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)
        self.loops.pop()

    def visit_While(self, node: ast.While) -> None:
        self.loops.append(_Loop(set()))
        self.visit(node.test)
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)
        self.loops.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._track_assign(target.id, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self._track_assign(node.target.id, node.value)
            canon = self.an.annotation_canonical(
                node.annotation, self.module
            )
            if canon in _ARRAY_TYPES:
                self.array_names.add(node.target.id)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # Only the value is scanned: the target is the accumulator.
        self.visit(node.value)

    def visit_Raise(self, node: ast.Raise) -> None:
        self._exit_depth += 1
        self.generic_visit(node)
        self._exit_depth -= 1

    def visit_Return(self, node: ast.Return) -> None:
        self._exit_depth += 1
        self.generic_visit(node)
        self._exit_depth -= 1

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self.loops and not self._exit_depth and isinstance(
            node.ctx, ast.Load
        ):
            loop_targets: set[str] = set()
            for loop in self.loops:
                loop_targets |= loop.targets
            index_names = {
                sub.id
                for sub in walk(node.slice)
                if isinstance(sub, ast.Name)
            }
            inner = self.loops[-1]
            if (
                not inner.flagged001
                and index_names & loop_targets
                and not self._has_slice(node.slice)
                and self._is_array(node.value)
                # An array-valued index is a vectorized gather
                # (``base[combos[:, k]]`` reads a whole column), not a
                # per-element read.
                and not self._is_array(node.slice)
            ):
                inner.flagged001 = True
                self._emit(
                    "PERF001", Severity.ERROR, node.lineno,
                    f"reads numpy array "
                    f"{ast.unparse(node.value)!r} one element at a "
                    "time inside the loop",
                    hint="replace the scalar loop with a vectorized "
                    "array expression",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        canon = self._call_canonical(node)
        # PERF004 pattern A: np.array([row(...) for ...]) of array rows.
        if (
            canon in _NP_STACKERS
            and len(node.args) == 1
            and isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp))
        ):
            element = node.args[0].elt
            if isinstance(element, ast.Call) and self._returns_array(
                element
            ):
                self._claimed.add(node.lineno)
                self._emit(
                    "PERF004", Severity.ERROR, node.lineno,
                    "stacks per-item array rows through a Python list "
                    f"({canon.replace('numpy', 'np')} over a "
                    "comprehension of array-returning calls)",
                    hint="preallocate np.empty((n, k)) and fill rows in "
                    "place",
                )
        # PERF004 pattern B: xs = [] … xs.append(…) in loop … np.array(xs)
        if (
            canon in _NP_STACKERS
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in self.empty_lists
            and node.args[0].id in self.appended_in_loop
        ):
            self._claimed.add(node.lineno)
            self._emit(
                "PERF004", Severity.ERROR, node.lineno,
                f"accumulates {node.args[0].id!r} with list.append and "
                "converts with np.array afterwards",
                hint="preallocate the array and write by index, or "
                "build it with one vectorized expression",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
            and self.loops
        ):
            self.appended_in_loop.add(node.func.value.id)
        if self.loops and not self._exit_depth:
            self._check_loop_call(node, canon)
        self.generic_visit(node)

    def _check_loop_call(self, node: ast.Call, canon: str | None) -> None:
        # PERF002: allocation per iteration.
        if canon in _NP_ALLOCATORS and node.lineno not in self._claimed:
            if canon in _NP_GROWERS:
                hint = (
                    "collect into a list and stack once after the loop "
                    "(repeated concatenate/append copies the prefix)"
                )
            else:
                hint = "hoist the allocation or batch the computation"
            self._emit(
                "PERF002", Severity.ERROR, node.lineno,
                f"allocates a numpy array with "
                f"{canon.replace('numpy', 'np')}() every iteration",
                hint=hint,
            )
        # PERF006: per-point call with a batched equivalent.
        bare = None
        if isinstance(node.func, ast.Attribute):
            bare = node.func.attr
        elif isinstance(node.func, ast.Name):
            bare = node.func.id
        if bare in _BATCHABLE:
            self._emit(
                "PERF006", Severity.WARN, node.lineno,
                f"calls {bare}() once per sweep point",
                hint=_BATCHABLE[bare],
            )
        # PERF008: logging/printing formats per iteration.
        is_logging = canon in _LOGGING_CALLS or (
            isinstance(node.func, ast.Name) and node.func.id == "print"
        )
        if not is_logging and isinstance(node.func, ast.Attribute):
            head = _dotted_name(node.func.value)
            if (
                node.func.attr in _LOGGING_METHODS
                and head is not None
                and "log" in head[-1].lower()
            ):
                is_logging = True
        if is_logging:
            self._emit(
                "PERF008", Severity.WARN, node.lineno,
                "does logging/printing work inside a hot loop",
                hint="aggregate and report once after the loop, or "
                "guard behind a level check",
            )

    def visit_Try(self, node: ast.Try) -> None:
        if self.loops:
            nested_loop = any(
                isinstance(sub, (ast.For, ast.While))
                for stmt in node.body
                for sub in walk(stmt)
            )
            if not nested_loop:
                self._emit(
                    "PERF008", Severity.WARN, node.lineno,
                    "sets up exception handling once per iteration of a "
                    "hot loop",
                    hint="move the try/except outside the loop or "
                    "validate inputs up front",
                )
        self.generic_visit(node)


# --------------------------------------------------------------------------
# hot roots + public API
# --------------------------------------------------------------------------


def _hot_roots(
    analyzer: _Analyzer, markers: dict[str, set[int]]
) -> dict[str, str]:
    roots: dict[str, str] = {}
    for key, info in analyzer.funcs.items():
        reason = _HOT_ROOT_NAMES.get(info.name)
        if reason is not None:
            roots[key] = f"{reason} ({info.name})"
        if (
            info.cls is not None
            and info.name == "run"
            and info.cls.name.endswith("Pipeline")
        ):
            roots[key] = f"pass-pipeline execution ({info.cls.name}.run)"
        marked = markers.get(info.module.path, set())
        if info.node.lineno in marked or info.node.lineno - 1 in marked:
            roots[key] = f"explicit hot marker on {info.name}"
    for cls, name, fkey in analyzer.threaded_methods():
        roots.setdefault(fkey, f"request-handler method ({cls.name}.{name})")
    return roots


def analyze_program(program: Program) -> list[Diagnostic]:
    """Analyze ``program`` as one whole; most severe findings first.
    Files that could not be read or parsed are ``PERF000`` errors."""
    analyzer = program.analyzer
    markers = {
        f.path: {
            lineno
            for lineno, line in enumerate(f.source.splitlines(), start=1)
            if _HOT_MARKER.search(line)
        }
        for f in program.parsed
    }
    witness = analyzer._reachability(
        _hot_roots(analyzer, markers), skip_dunder_callees=True
    )
    found = program.failures("PERF000")
    for key, info in analyzer.funcs.items():
        if key in witness:
            found.extend(_PerfScanner(analyzer, info, witness[key]).run())
    for module in analyzer.modules.values():
        found.extend(
            module.suppress.stale_diagnostics(module.path, ("PERF",))
        )
    return sort_diagnostics(found)


def analyze_sources(items: Iterable[tuple[str, str]]) -> list[Diagnostic]:
    """Analyze ``(path, source)`` pairs as one program."""
    return analyze_program(Program.from_sources(items))


def analyze_source(source: str, path: str = "<module>") -> list[Diagnostic]:
    """Analyze a single module's source text (fixture-test entry point)."""
    return analyze_sources([(path, source)])


def analyze_paths(
    paths: Iterable[str | Path],
) -> tuple[list[Diagnostic], int]:
    """Analyze every ``.py`` file under ``paths`` as one program;
    returns ``(diagnostics, n_files)`` like ``lint_paths``."""
    program = Program.load(paths)
    return analyze_program(program), program.n_files


__all__ = [
    "PERF_RULES",
    "analyze_paths",
    "analyze_program",
    "analyze_source",
    "analyze_sources",
]
