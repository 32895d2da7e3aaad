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
PERF003   WARN    loop-invariant pure call recomputed every iteration
PERF004   ERROR   list-accumulate-then-``np.array`` where a preallocated
                  buffer or a single stack suffices
PERF005   WARN    repeated dict/registry lookup of a loop-invariant key
PERF006   WARN    unbatched per-point predict/profile call inside a
                  sweep that has a batched equivalent
PERF007   ERROR   O(n²) growth via ``+=`` on str/list in a hot loop
PERF008   WARN    exception handling or logging work in a hot loop
========  ======  ====================================================

Hot roots come from three sources: a fixed table of hot entry points by
name (``_measure_point``, ``zoo_profile``, ``predict_one`` …), methods
of request-handler/threaded classes (the serve path), ``run`` methods of
``*Pipeline`` classes, and an explicit ``# repro-perf: hot`` marker on
(or directly above) a ``def`` line for code the tables cannot know.

Suppressions use the shared ``repro.lint.suppress`` framework
(``# repro-lint: disable=PERF001``); unused ``PERF`` suppressions are
reported as SUP001, and every in-repo suppression must carry a
justification comment (see ``docs/static-analysis.md``).

Known, documented blind spots (kept deliberate; see the docs): loop
invariance is judged within one function body, so invariant work hidden
behind a helper *called* from the loop is not charged to the loop;
comprehensions are not treated as loops; arrays reaching a function
through untyped (unannotated) parameters are invisible to PERF001/002.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.concurrency import (
    _AMBIGUOUS_METHODS,
    _Analyzer,
    _FuncInfo,
    _dotted_name,
)
from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.lint.rules import LintRule, iter_python_files

# --------------------------------------------------------------------------
# hot-root tables
# --------------------------------------------------------------------------

#: Explicit opt-in marker for code the name tables cannot know about.
_HOT_MARKER = re.compile(r"#\s*repro-perf:\s*hot\b")

#: Function/method names that *are* the hot paths of this repo (and of
#: its fixtures): the campaign point loop, profiling, prediction, the
#: serve handler and the scaling-curve evaluators.
_HOT_ROOT_NAMES: dict[str, str] = {
    "_measure_point": "campaign point measurement",
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
    "predict_forward_batch": "serve batched prediction",
    "predict_step_batch": "serve batched prediction",
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
# purity / batchability knowledge for PERF003 and PERF006
# --------------------------------------------------------------------------

#: Repo functions that are pure in their arguments — calling them with
#: loop-invariant arguments inside a loop is pure waste.
_PURE_CALLS = frozenset({
    "repro.graph.passes.resolve_transform",
    "repro.graph.passes.default_inference_pipeline",
    "repro.graph.passes.build_pipeline",
})

#: Pure builtins worth hoisting when their arguments are invariant.
_PURE_BUILTINS = frozenset({"sorted", "min", "max", "sum"})

#: Pure methods (content hashes, signatures, cached topology walks).
_PURE_METHODS = frozenset({
    "fingerprint", "signature", "topological_order", "feature_labels",
})

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
        "precompute the clean-time grid for the whole batch sweep "
        "(SimulatedExecutor.clean_time_grids) and reuse it per point",
    "measure_training_step":
        "precompute the clean-time grid for the whole batch sweep "
        "(SimulatedExecutor.clean_time_grids) and reuse it per point",
    "_measure_point":
        "batch the per-model clean phase times over the whole grid "
        "(engine clean-time grid cache)",
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
    LintRule("PERF003", Severity.WARN,
             "loop-invariant pure call recomputed every iteration"),
    LintRule("PERF004", Severity.ERROR,
             "list-accumulate-then-np.array where a preallocated "
             "buffer or single stack suffices"),
    LintRule("PERF005", Severity.WARN,
             "repeated dict/registry lookup of a loop-invariant key"),
    LintRule("PERF006", Severity.WARN,
             "unbatched per-point predict/profile call inside a sweep "
             "with a batched equivalent"),
    LintRule("PERF007", Severity.ERROR,
             "O(n^2) growth via '+=' on str/list in a hot loop"),
    LintRule("PERF008", Severity.WARN,
             "exception handling or logging work in a hot loop"),
)


# --------------------------------------------------------------------------
# per-function scanner
# --------------------------------------------------------------------------


@dataclass
class _Loop:
    """One active ``for``/``while`` statement."""

    node: ast.stmt
    #: every name stored anywhere inside the loop statement
    assigned: set[str]
    #: for-loop index/target names (empty for while)
    targets: set[str]
    flagged001: bool = False
    perf005_seen: set[str] = field(default_factory=set)


class _PerfScanner(ast.NodeVisitor):
    """Evaluate PERF001–PERF008 over one *hot* function body."""

    def __init__(
        self,
        analyzer: _Analyzer,
        info: _FuncInfo,
        witness: str,
        ignore: frozenset[str],
    ) -> None:
        self.an = analyzer
        self.info = info
        self.module = info.module
        self.witness = witness
        self.ignore = ignore
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
        self.str_list_names: set[str] = set()
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
        if rule in self.ignore:
            return
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

    def _is_str_or_list(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, str)
        if isinstance(expr, (ast.JoinedStr, ast.List, ast.ListComp)):
            return True
        if isinstance(expr, ast.Call):
            parts = _dotted_name(expr.func)
            if parts == ["list"] or parts == ["str"]:
                return True
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "join"
            ):
                return True
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return (
                self._is_str_or_list(expr.left)
                or self._is_str_or_list(expr.right)
            )
        return False

    def _invariant(self, expr: ast.expr) -> bool:
        """True when no name in ``expr`` is assigned by the innermost
        loop (so the expression could be hoisted one level out)."""
        if not self.loops:
            return False
        assigned = self.loops[-1].assigned
        return all(
            node.id not in assigned
            for node in ast.walk(expr)
            if isinstance(node, ast.Name)
        )

    # -- assignment tracking --------------------------------------------------

    def _track_assign(self, name: str, value: ast.expr | None) -> None:
        if value is None:
            self.array_names.discard(name)
            self.str_list_names.discard(name)
            self.class_types.pop(name, None)
            return
        # Classify the value BEFORE dropping the old binding: assignments
        # like ``X = X[None, :]`` refer to the name being rebound, and the
        # right-hand side is typed under the *old* binding.
        is_array = self._is_array(value)
        is_str_or_list = self._is_str_or_list(value)
        self.array_names.discard(name)
        self.str_list_names.discard(name)
        self.class_types.pop(name, None)
        if is_array:
            self.array_names.add(name)
        elif is_str_or_list:
            self.str_list_names.add(name)
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
        for sub in ast.walk(expr):
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
            for sub in ast.walk(node.target)
            if isinstance(sub, ast.Name)
        }
        assigned = {
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name)
            and isinstance(sub.ctx, (ast.Store, ast.Del))
        }
        # The iterable expression is evaluated once, before the first
        # iteration — visit it outside the loop context.
        self.visit(node.iter)
        self.loops.append(_Loop(node, assigned, targets, flagged))
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)
        self.loops.pop()

    def visit_While(self, node: ast.While) -> None:
        assigned = {
            sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name)
            and isinstance(sub.ctx, (ast.Store, ast.Del))
        }
        self.loops.append(_Loop(node, assigned, set()))
        self.visit(node.test)
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)
        self.loops.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        target_names = [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ]
        # PERF007: arr = np.append(arr, x) — copies the prefix each time.
        if self.loops and isinstance(value, ast.Call):
            canon = self._call_canonical(value)
            if (
                canon in _NP_GROWERS
                and value.args
                and isinstance(value.args[0], ast.Name)
                and value.args[0].id in target_names
            ):
                self._claimed.add(node.lineno)
                self._emit(
                    "PERF007", Severity.ERROR, node.lineno,
                    f"grows {value.args[0].id!r} with "
                    f"{canon.replace('numpy', 'np')}() every iteration "
                    "(copies the accumulated prefix: O(n^2))",
                    hint="collect into a list and stack once, or "
                    "preallocate the full array",
                )
        # PERF007: x = x + <str/list> growth.
        if (
            self.loops
            and isinstance(value, ast.BinOp)
            and isinstance(value.op, ast.Add)
            and isinstance(value.left, ast.Name)
            and value.left.id in target_names
            and value.left.id in self.str_list_names
        ):
            self._emit(
                "PERF007", Severity.ERROR, node.lineno,
                f"rebinds {value.left.id!r} via str/list concatenation "
                "every iteration (O(n^2) growth)",
                hint="accumulate parts in a list and join/extend once",
            )
        self.visit(value)
        for name in target_names:
            self._track_assign(name, value)

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
        if (
            self.loops
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Name)
            and node.target.id in self.str_list_names
        ):
            self._emit(
                "PERF007", Severity.ERROR, node.lineno,
                f"'+=' on str/list {node.target.id!r} inside a loop "
                "(O(n^2) growth)",
                hint="accumulate parts in a list and join/extend once",
            )
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
                for sub in ast.walk(node.slice)
                if isinstance(sub, ast.Name)
            }
            if self._is_array(node.value):
                inner = self.loops[-1]
                if (
                    not inner.flagged001
                    and index_names & loop_targets
                    and not self._has_slice(node.slice)
                    # An array-valued index is a vectorized gather
                    # (``base[combos[:, k]]`` reads a whole column), not
                    # a per-element read.
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
            else:
                key = node.slice
                key_is_str = isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                )
                if (
                    (key_is_str or isinstance(key, ast.Name))
                    and _dotted_name(node.value) is not None
                    and self._invariant(node)
                ):
                    label = ast.unparse(node)
                    inner = self.loops[-1]
                    if label not in inner.perf005_seen:
                        inner.perf005_seen.add(label)
                        self._emit(
                            "PERF005", Severity.WARN, node.lineno,
                            f"looks up loop-invariant key "
                            f"{label!r} every iteration",
                            hint="hoist the lookup above the loop",
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
        # PERF003: pure call on invariant arguments.
        pure = canon in _PURE_CALLS or canon in _PURE_BUILTINS
        if (
            not pure
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _PURE_METHODS
        ):
            pure = True
        if pure and self._invariant(node):
            self._emit(
                "PERF003", Severity.WARN, node.lineno,
                f"recomputes loop-invariant pure call "
                f"{ast.unparse(node.func)}(...) every iteration",
                hint="hoist the call above the loop (or memoize it)",
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
                and _is_loggerish_name(head[-1])
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
                for sub in ast.walk(stmt)
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


def _is_loggerish_name(name: str) -> bool:
    lowered = name.lower()
    return "log" in lowered


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
    for cls in analyzer.class_index.values():
        if not analyzer._is_threaded_class(cls.key):
            continue
        for name, fkey in cls.methods.items():
            if name == "__init__":
                continue
            roots.setdefault(
                fkey, f"request-handler method ({cls.name}.{name})"
            )
    return roots


def analyze_sources(
    items: Iterable[tuple[str, str]], ignore: Iterable[str] = ()
) -> list[Diagnostic]:
    """Analyze ``(path, source)`` pairs as one program; most severe
    findings first."""
    analyzer = _Analyzer(parse_rule="PERF000")
    markers: dict[str, set[int]] = {}
    for path, source in items:
        markers[path] = {
            lineno
            for lineno, line in enumerate(source.splitlines(), start=1)
            if _HOT_MARKER.search(line)
        }
        analyzer.add_module(source, path)
    analyzer._collect_class_attrs()
    analyzer._scan_all()
    witness = analyzer._reachability(
        _hot_roots(analyzer, markers), skip_dunder_callees=True
    )
    ignored = frozenset(ignore)
    found = list(analyzer.parse_failures)
    for key, info in analyzer.funcs.items():
        if key not in witness:
            continue
        found.extend(
            _PerfScanner(analyzer, info, witness[key], ignored).run()
        )
    for module in analyzer.modules.values():
        found.extend(
            module.suppress.stale_diagnostics(module.path, ("PERF",))
        )
    return sort_diagnostics(found)


def analyze_source(
    source: str, path: str = "<module>", ignore: Iterable[str] = ()
) -> list[Diagnostic]:
    """Analyze a single module's source text (fixture-test entry point)."""
    return analyze_sources([(path, source)], ignore=ignore)


def analyze_paths(
    paths: Iterable[str | Path], ignore: Iterable[str] = ()
) -> tuple[list[Diagnostic], int]:
    """Analyze every ``.py`` file under ``paths`` as one program.

    Returns ``(diagnostics, n_files)``; unreadable files are reported as
    ``PERF000`` errors rather than raised, mirroring ``lint_paths``.
    """
    items: list[tuple[str, str]] = []
    failures: list[Diagnostic] = []
    for f in iter_python_files(paths):
        try:
            items.append((str(f), f.read_text()))
        except OSError as exc:
            failures.append(
                Diagnostic(
                    "PERF000", Severity.ERROR, str(f),
                    f"cannot read file: {exc}",
                )
            )
    found = failures + analyze_sources(items, ignore=ignore)
    return sort_diagnostics(found), len(items)


__all__ = [
    "PERF_RULES",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
]
