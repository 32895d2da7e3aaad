"""Concurrency-hazard analyzer: lock-discipline race detection (CON0xx).

PR 6 made the reproduction a genuinely multi-threaded system — an HTTP
front end whose selector loop runs on its own thread beside the threads
that read its counters, a hot-reloading ``ModelRegistry`` and
lock-guarded ``LRUCache`` instances — and the serving path's exact-equality
guarantees (byte-identical predictions, exact ``/metrics`` counters) are
only as strong as its lock discipline.  This module applies the repo's
static-analysis philosophy (trust established without running the
workload) to that discipline: a stdlib-:mod:`ast` pass over all modules at
once, joined by a module-level call graph, with findings emitted as
:class:`repro.diagnostics.Diagnostic` records under the same suppression
(:mod:`repro.lint.suppress`) and rendering conventions as ``repro.lint``.

The analysis proceeds in phases:

1. **Collect** every module: import aliases, classes, top-level functions,
   module-global constructor types and module-global locks.
2. **Lock discipline** per class: attributes assigned ``threading.Lock()``
   (and friends) in ``__init__`` are the class's locks; attributes holding
   thread-safe containers (``repro.caching.LRUCache``, ``queue.Queue``,
   ``threading.local``) are exempt from guarding rules.
3. **Scan** every function: call sites (with the set of locks held at the
   call), attribute reads and mutations, ``with <lock>:`` regions, and
   blocking/hostile API uses.  Receivers are typed where the code says so
   (constructor assignments, parameter and class-body annotations), so
   ``self.registry.get(...)`` in ``PredictionServer`` resolves through
   its ``registry: ModelRegistry`` parameter to ``ModelRegistry.get``.
4. **Thread roots**: methods of ``BaseHTTPRequestHandler`` /
   ``ThreadingMixIn`` subclasses, ``threading.Thread`` / ``Timer``
   targets, and ``ThreadPoolExecutor`` submissions.  *Process*-pool
   submissions are deliberately **not** roots, and add no call edge:
   workers get their own interpreter state.
5. **Entry locks** per function by fixpoint: the intersection, over all
   in-repo call sites, of the locks held at the site.  This encodes the
   ``_reload_locked``-style convention (a helper only ever called under
   the lock is treated as guarded) without annotations.
6. **Evaluate** CON002, CON005, CON006 and CON008 and report stale
   ``CON`` suppressions (``SUP001``, shared framework rule).

Known, documented limits (see ``docs/static-analysis.md``): the analysis
is intra-repository and name/type-driven — attributes of classes with *no*
lock discipline are invisible to CON002 (there is no lock to contrast
against; ``Tracer`` is safe only because ``PredictionServer`` wraps it in
``_counter_lock``, which the deterministic race tests pin down), and
reachability is static, so a call that is dynamically dead (an early
``return`` guard) still counts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.lint.program import Program
from repro.lint.rules import LintRule, _dotted_name
from repro.lint.suppress import SuppressionIndex
from repro.lint.walk import Visitor, walk

# --------------------------------------------------------------------------
# canonical-name tables
# --------------------------------------------------------------------------

#: Constructors whose result is a lock for discipline inference.
_LOCK_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
})

#: Constructors whose result is safe to share between threads unguarded.
_THREAD_SAFE_CTORS = frozenset({
    "repro.caching.LRUCache",
    "queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
    "queue.SimpleQueue",
    "threading.local",
})

#: Method names that mutate their receiver container in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "appendleft", "popleft",
    "move_to_end", "sort", "reverse",
})

#: Process-global APIs that are not safe to touch from server threads
#: (CON006).  Values explain the shared state involved.
_HOSTILE_CALLS = {
    "warnings.warn": "the process-global warnings registry/filters",
    "warnings.filterwarnings": "the process-global warning filters",
    "warnings.simplefilter": "the process-global warning filters",
    "warnings.resetwarnings": "the process-global warning filters",
    "warnings.catch_warnings": "the process-global warning filters "
    "(save/restore races with other threads)",
    "os.chdir": "the process-global working directory",
    "os.putenv": "the process environment",
    "os.unsetenv": "the process environment",
    "os.umask": "the process-global umask",
    "locale.setlocale": "the process-global locale",
    "signal.signal": "process-global signal handlers "
    "(and only the main thread may set them)",
    "sys.setrecursionlimit": "the process-global recursion limit",
}

#: ``random`` module-level functions that draw from (or reseed) the hidden
#: global RNG — call-order dependent across threads (CON006).
_RANDOM_GLOBAL_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: Legacy ``numpy.random`` module-level functions (the shared global
#: RandomState); ``numpy.random.default_rng(seed)`` is per-call state.
_NUMPY_RANDOM_GLOBAL_FNS = frozenset({
    "beta", "binomial", "choice", "exponential", "gamma", "get_state",
    "lognormal", "normal", "permutation", "poisson", "rand", "randint",
    "randn", "random", "random_sample", "ranf", "sample", "seed",
    "set_state", "shuffle", "standard_normal", "uniform",
})

#: ``os.environ`` methods that mutate the environment.
_ENV_MUTATORS = frozenset({"update", "pop", "setdefault", "clear",
                           "popitem"})

#: Calls that block on I/O or time (CON008 when under a lock).
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "urllib.request.urlopen",
    "socket.create_connection",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
})

#: Method names that read/write the filesystem on any receiver
#: (``pathlib.Path`` I/O in this repo).
_BLOCKING_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes", "stat",
})

_THREAD_CTORS = frozenset({"threading.Thread", "threading.Timer"})
_THREAD_POOL_CTOR = "concurrent.futures.ThreadPoolExecutor"
_PROCESS_POOL_CTOR = "concurrent.futures.ProcessPoolExecutor"
_TPOOL = "::thread-pool"
_PPOOL = "::process-pool"

#: Base classes whose subclasses' methods run on request/worker threads.
_THREAD_ROOT_BASES = frozenset({
    "http.server.BaseHTTPRequestHandler",
    "http.server.SimpleHTTPRequestHandler",
    "http.server.CGIHTTPRequestHandler",
    "http.server.ThreadingHTTPServer",
    "socketserver.BaseRequestHandler",
    "socketserver.StreamRequestHandler",
    "socketserver.DatagramRequestHandler",
    "socketserver.ThreadingMixIn",
    "socketserver.ThreadingTCPServer",
    "socketserver.ThreadingUDPServer",
})

#: Method names too common to resolve by name alone — a call through an
#: untyped receiver with one of these names gets *no* call-graph edge
#: rather than a bogus one (dict.get must not become ModelRegistry.get).
_AMBIGUOUS_METHODS = frozenset({
    "acquire", "add", "append", "clear", "close", "connect", "copy",
    "count", "decode", "describe", "discard", "dump", "dumps", "encode",
    "end_headers", "endswith", "endheaders", "exists", "extend",
    "findall", "finditer", "flush", "format", "get", "getresponse",
    "glob", "group", "index", "insert", "is_dir", "is_file", "is_set",
    "items", "join", "keys", "load", "loads", "lower", "lstrip", "map",
    "match", "mkdir", "move_to_end", "name", "notify", "notify_all",
    "now", "open", "pop", "popitem", "putheader", "read", "recv",
    "release", "remove", "replace", "request", "resolve", "result",
    "reverse", "rglob", "rstrip", "run", "search", "seek", "send",
    "send_error", "send_header", "send_response", "set", "setdefault",
    "shutdown", "sort", "split", "start", "startswith", "stat", "stop",
    "strip", "sub", "submit", "to_dict", "total_seconds", "unlink",
    "update", "upper", "utcnow", "values", "wait", "write",
})

#: Identifier segments that make a bare name look like a lock.
_LOCKISH_SEGMENTS = frozenset({
    "lock", "rlock", "mutex", "cond", "condition", "sem", "semaphore",
})

#: Methods where unguarded attribute setup is expected: the instance is
#: not yet (or no longer) shared with other threads.
_CONSTRUCTION_METHODS = frozenset({
    "__init__", "__new__", "__post_init__", "__del__",
    "__getstate__", "__setstate__",
})


def _is_lockish_name(name: str) -> bool:
    return any(
        seg in _LOCKISH_SEGMENTS for seg in name.lower().strip("_").split("_")
    )


def _module_name(path: str) -> str:
    """Dotted module name anchored at the ``repro`` package when the path
    runs through one, else the file stem (fixture sources)."""
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    elif parts:
        parts = parts[-1:]
    return ".".join(parts) or "<module>"


# --------------------------------------------------------------------------
# collected facts
# --------------------------------------------------------------------------


@dataclass
class _ClassInfo:
    key: str                       # "repro.caching.LRUCache"
    #: The name of its module in ``_Analyzer.modules``.  Not the
    #: ``_ModuleInfo`` itself: that holds this record, and the cycle would
    #: leave a dropped call graph, trees included, to the cyclic collector.
    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> fkey
    attr_types: dict[str, str] = field(default_factory=dict)
    lock_attrs: set[str] = field(default_factory=set)
    safe_attrs: set[str] = field(default_factory=set)

    def lock_ids(self) -> set[str]:
        return {f"{self.key}.{attr}" for attr in self.lock_attrs}


@dataclass
class _ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    suppress: SuppressionIndex
    aliases: dict[str, str] = field(default_factory=dict)
    classes: dict[str, _ClassInfo] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)  # name -> fkey
    global_types: dict[str, str] = field(default_factory=dict)
    global_locks: set[str] = field(default_factory=set)


@dataclass
class _CallSite:
    callee: str
    lineno: int
    locks: frozenset[str]


@dataclass
class _Region:
    """One ``with <lock>:`` block, for CON005 check-then-act pairing."""

    lock: str
    start: int
    end: int
    reads: dict[str, int] = field(default_factory=dict)
    writes: dict[str, int] = field(default_factory=dict)


@dataclass
class _FuncInfo:
    key: str
    module: _ModuleInfo
    cls: _ClassInfo | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[_CallSite] = field(default_factory=list)
    #: (class key, attr, lineno, locks held, is mutation)
    attr_events: list[tuple[str, str, int, frozenset, bool]] = field(
        default_factory=list)
    #: (description, lineno, locks held)
    blocking: list[tuple[str, int, frozenset]] = field(default_factory=list)
    #: (description, lineno)
    hostile: list[tuple[str, int]] = field(default_factory=list)
    regions: list[_Region] = field(default_factory=list)


# --------------------------------------------------------------------------
# function scanner
# --------------------------------------------------------------------------


class _FunctionScanner(Visitor):
    """One pass over one function body, collecting :class:`_FuncInfo`."""

    def __init__(self, analyzer: "_Analyzer", info: _FuncInfo) -> None:
        self.an = analyzer
        self.info = info
        self.module = info.module
        self.cls = info.cls
        self.locks: list[str] = []
        self.active_regions: list[_Region] = []
        self.local_types: dict[str, str] = {}
        self.local_funcs: dict[str, str] = {}
        self.local_names: set[str] = set()
        self.globals_decl: set[str] = set()
        self._bind_params()
        # Nested functions capture `self` from the enclosing method.
        if self.cls and "self" not in self.local_types:
            self.local_types["self"] = self.cls.key
            self.local_names.add("self")

    # -- setup -------------------------------------------------------------

    def _bind_params(self) -> None:
        args = self.info.node.args
        params = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]
        for i, arg in enumerate(params):
            self.local_names.add(arg.arg)
            if i == 0 and arg.arg in ("self", "cls") and self.cls:
                self.local_types[arg.arg] = self.cls.key
            elif arg.annotation is not None:
                key = self.an.annotation_class(arg.annotation, self.module)
                if key:
                    self.local_types[arg.arg] = key

    # -- helpers -------------------------------------------------------------

    def _locks_now(self) -> frozenset[str]:
        return frozenset(self.locks)

    def _canonical(self, node: ast.expr) -> str | None:
        parts = _dotted_name(node)
        if parts is None or parts[0] in self.local_names:
            return None
        return self.an.canonical(parts, self.module)

    def _expr_type(self, node: ast.expr) -> str | None:
        """Class key (or ``::pool`` pseudo-type) of an expression, where
        the code's own annotations/constructors say so."""
        if isinstance(node, ast.Name):
            if node.id in self.local_types:
                return self.local_types[node.id]
            if node.id in self.local_names:
                return None
            canonical = self.an.canonical([node.id], self.module)
            if canonical:
                gtype = self.an.global_type(canonical)
                if gtype:
                    return gtype
            if node.id in self.module.global_types:
                return self.an.resolve_class(
                    self.module.global_types[node.id])
            return None
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value)
            if base:
                cls = self.an.class_index.get(base)
                if cls and node.attr in cls.attr_types:
                    return self.an.resolve_class(cls.attr_types[node.attr])
            return None
        if isinstance(node, ast.Call):
            return self._constructed_type(node)
        return None

    def _constructed_type(self, node: ast.Call) -> str | None:
        canonical = self._canonical(node.func)
        if canonical is None:
            return None
        if canonical == _THREAD_POOL_CTOR:
            return _TPOOL
        if canonical == _PROCESS_POOL_CTOR:
            return _PPOOL
        return self.an.resolve_class(canonical)

    def _lock_id(self, node: ast.expr) -> str | None:
        """Stable identity of a lock expression, or None for non-locks."""
        if isinstance(node, ast.Attribute):
            base_type = self._expr_type(node.value)
            if base_type and base_type not in (_TPOOL, _PPOOL):
                cls = self.an.class_index.get(base_type)
                if cls is not None and (
                    node.attr in cls.lock_attrs
                    or _is_lockish_name(node.attr)
                ):
                    cls.lock_attrs.add(node.attr)
                    return f"{cls.key}.{node.attr}"
            return None
        if isinstance(node, ast.Name):
            if node.id in self.local_names:
                # A lock created locally is not shared; ignore.
                return None
            if node.id in self.module.global_locks or _is_lockish_name(
                node.id
            ):
                return f"{self.module.name}.{node.id}"
        return None

    def _func_ref(self, node: ast.expr) -> str | None:
        """Key of the analyzed function an expression refers to (without
        calling it) — callback arguments, thread targets."""
        if isinstance(node, ast.Name):
            if node.id in self.local_funcs:
                return self.local_funcs[node.id]
            if node.id in self.local_names:
                return None
            canonical = self.an.canonical([node.id], self.module)
            if canonical:
                return self.an.resolve_function(canonical)
            return None
        if isinstance(node, ast.Attribute):
            rtype = self._expr_type(node.value)
            if rtype and rtype not in (_TPOOL, _PPOOL):
                return self.an.resolve_method(rtype, node.attr)
            canonical = self._canonical(node)
            if canonical:
                return self.an.resolve_function(canonical)
        return None

    def _add_call(self, callee: str | None, lineno: int) -> None:
        if callee:
            self.info.calls.append(
                _CallSite(callee, lineno, self._locks_now()))

    def _record_attr(
        self, cls_key: str, attr: str, lineno: int, is_mut: bool
    ) -> None:
        cls = self.an.class_index.get(cls_key)
        if cls is not None and (
            attr in cls.lock_attrs or attr in cls.methods
        ):
            return
        self.info.attr_events.append(
            (cls_key, attr, lineno, self._locks_now(), is_mut))
        for region in self.active_regions:
            book = region.writes if is_mut else region.reads
            book.setdefault(attr, lineno)

    # -- scan entry ----------------------------------------------------------

    def scan(self) -> None:
        for stmt in self.info.node.body:
            self.visit(stmt)

    # -- scoping / definitions ----------------------------------------------

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        key = f"{self.info.key}.<locals>.{node.name}"
        self.local_funcs[node.name] = key
        self.local_names.add(node.name)
        # Closures capture `self`, so attribute facts keep the class.
        self.an.enqueue(key, self.module, self.cls, node.name, node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Global(self, node: ast.Global) -> None:
        self.globals_decl.update(node.names)

    # -- with blocks ----------------------------------------------------------

    def visit_With(self, node: ast.With | ast.AsyncWith) -> None:
        pushed_locks: list[str] = []
        pushed_regions: list[_Region] = []
        for item in node.items:
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                if lock not in self.locks:
                    self.locks.append(lock)
                    pushed_locks.append(lock)
                    region = _Region(
                        lock=lock,
                        start=node.lineno,
                        end=getattr(node, "end_lineno", node.lineno)
                        or node.lineno,
                    )
                    self.info.regions.append(region)
                    self.active_regions.append(region)
                    pushed_regions.append(region)
            else:
                self.visit(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.local_names.add(item.optional_vars.id)
                    ctype = self._expr_type(item.context_expr)
                    if ctype:
                        self.local_types[item.optional_vars.id] = ctype
        for stmt in node.body:
            self.visit(stmt)
        for lock in pushed_locks:
            self.locks.remove(lock)
        for region in pushed_regions:
            self.active_regions.remove(region)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- stores ---------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._store(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._store(node.target, node.value)
        elif isinstance(node.target, ast.Name):
            self.local_names.add(node.target.id)
            key = self.an.annotation_class(node.annotation, self.module)
            if key:
                self.local_types[node.target.id] = key

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        self._store(node.target, None)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._store(target, None)

    def _store(self, target: ast.expr, value: ast.expr | None) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, None)
            return
        if isinstance(target, ast.Starred):
            self._store(target.value, None)
            return
        if isinstance(target, ast.Name):
            if target.id in self.globals_decl:
                # A declared global stays a module name, not a local.
                return
            self.local_names.add(target.id)
            if value is not None:
                vtype = self._expr_type(value)
                if vtype:
                    self.local_types[target.id] = vtype
                elif (
                    isinstance(value, ast.Name)
                    and value.id in self.local_funcs
                ):
                    self.local_funcs[target.id] = (
                        self.local_funcs[value.id])
            return
        if isinstance(target, ast.Attribute):
            owner = self._expr_type(target.value)
            if owner and owner not in (_TPOOL, _PPOOL):
                cls = self.an.class_index.get(owner)
                if cls is None or target.attr not in cls.safe_attrs:
                    self._record_attr(
                        owner, target.attr, target.lineno, True)
            self.visit(target.value)
            return
        if isinstance(target, ast.Subscript):
            self._container_mutation(target.value, target.lineno)
            self.visit(target.slice)
            self.visit(target.value)

    def _container_mutation(self, base: ast.expr, lineno: int) -> None:
        """``base[...] = x`` / ``del base[...]`` / ``base.append(...)``."""
        if self._canonical(base) == "os.environ":
            self.info.hostile.append(
                ("mutation of os.environ (process-global environment)",
                 lineno))
            return
        if isinstance(base, ast.Attribute):
            owner = self._expr_type(base.value)
            if owner and owner not in (_TPOOL, _PPOOL):
                cls = self.an.class_index.get(owner)
                if cls is None or base.attr not in cls.safe_attrs:
                    self._record_attr(owner, base.attr, lineno, True)

    # -- loads ----------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            owner = self._expr_type(node.value)
            if (
                owner
                and owner not in (_TPOOL, _PPOOL)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            ):
                self._record_attr(owner, node.attr, node.lineno, False)
                return
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node)
        self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        lineno = node.lineno
        canonical = self._canonical(func)

        if canonical is not None:
            module, _, fn = canonical.rpartition(".")
            if module == "random" and fn in _RANDOM_GLOBAL_FNS:
                self.info.hostile.append(
                    (f"{canonical}() draws from the shared global RNG "
                     "(call-order dependent across threads)", lineno))
            elif module == "numpy.random" and fn in (
                _NUMPY_RANDOM_GLOBAL_FNS
            ):
                self.info.hostile.append(
                    (f"{canonical}() uses numpy's shared global "
                     "RandomState", lineno))
            elif canonical in _HOSTILE_CALLS:
                self.info.hostile.append(
                    (f"{canonical}() touches "
                     f"{_HOSTILE_CALLS[canonical]}", lineno))
            elif (
                module == "os.environ" and fn in _ENV_MUTATORS
            ):
                self.info.hostile.append(
                    ("mutation of os.environ (process-global "
                     "environment)", lineno))
            if canonical in _BLOCKING_CALLS:
                self.info.blocking.append(
                    (f"{canonical}()", lineno, self._locks_now()))
            if canonical in _THREAD_CTORS:
                self._thread_spawn(node, canonical)
            fkey = self.an.resolve_function(canonical)
            if fkey:
                self._add_call(fkey, lineno)
            else:
                ckey = self.an.resolve_class(canonical)
                if ckey:
                    init = self.an.resolve_method(ckey, "__init__")
                    if init:
                        self._add_call(init, lineno)
            self._ref_args(node)
            return

        if isinstance(func, ast.Name):
            if func.id == "open" and func.id not in self.local_names:
                self.info.blocking.append(
                    ("open()", lineno, self._locks_now()))
            elif func.id == "len" and len(node.args) == 1:
                atype = self._expr_type(node.args[0])
                if atype:
                    self._add_call(
                        self.an.resolve_method(atype, "__len__"), lineno)
            elif func.id in self.local_funcs:
                self._add_call(self.local_funcs[func.id], lineno)
            self._ref_args(node)
            return

        if isinstance(func, ast.Attribute):
            self._method_call(node, func, lineno)

    def _method_call(
        self, node: ast.Call, func: ast.Attribute, lineno: int
    ) -> None:
        attr = func.attr
        if attr in _BLOCKING_METHODS:
            self.info.blocking.append(
                (f".{attr}()", lineno, self._locks_now()))

        if attr in _MUTATING_METHODS:
            self._container_mutation(func.value, lineno)

        rtype = self._expr_type(func.value)
        if rtype == _TPOOL:
            if attr in ("submit", "map") and node.args:
                target = self._func_ref(node.args[0])
                if target:
                    self.an.mark_root(
                        target, "ThreadPoolExecutor submission")
                    self._add_call(target, lineno)
            return
        if rtype == _PPOOL:
            # Worker processes share no interpreter state: no edge.
            return
        if rtype:
            resolved = self.an.resolve_method(rtype, attr)
            if resolved:
                self._add_call(resolved, lineno)
                self._ref_args(node)
                return
        if attr not in _AMBIGUOUS_METHODS:
            for candidate in self.an.method_index.get(attr, ()):
                self._add_call(candidate, lineno)
        self._ref_args(node)

    def _ref_args(self, node: ast.Call) -> None:
        """Callback arguments referencing analyzed functions get a call
        edge: the callee will run (possibly on another thread) with at
        most the locks held here."""
        for value in [*node.args, *(kw.value for kw in node.keywords)]:
            ref = self._func_ref(value)
            if ref:
                self._add_call(ref, node.lineno)

    def _thread_spawn(self, node: ast.Call, canonical: str) -> None:
        target_expr = None
        for kw in node.keywords:
            if kw.arg in ("target", "function"):
                target_expr = kw.value
        if target_expr is None and canonical == "threading.Timer" and (
            len(node.args) >= 2
        ):
            target_expr = node.args[1]
        if target_expr is not None:
            ref = self._func_ref(target_expr)
            if ref:
                self.an.mark_root(ref, f"{canonical} target")

    # -- reads that reach container dunders ----------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if isinstance(op, (ast.In, ast.NotIn)):
                ctype = self._expr_type(operands[i + 1])
                if ctype:
                    self._add_call(
                        self.an.resolve_method(ctype, "__contains__"),
                        node.lineno)
        self.generic_visit(node)


# --------------------------------------------------------------------------
# whole-program analyzer
# --------------------------------------------------------------------------


class _Analyzer:
    """The whole program, collected and scanned: phases 1-4 above.

    Built once per :class:`~repro.lint.program.Program` (as
    ``program.analyzer``) and only read afterwards, so the CON and PERF
    rules can evaluate the same instance.
    """

    def __init__(self, program: Program) -> None:
        self.modules: dict[str, _ModuleInfo] = {}
        self.class_index: dict[str, _ClassInfo] = {}
        self.funcs: dict[str, _FuncInfo] = {}
        self.method_index: dict[str, list[str]] = {}
        self.roots: dict[str, str] = {}
        self._queue: list[tuple[str, _ModuleInfo, _ClassInfo | None, str,
                                ast.AST]] = []
        for f in program.parsed:
            module = _ModuleInfo(
                name=_module_name(f.path), path=f.path, tree=f.tree,
                suppress=f.suppress,
            )
            # Last add wins on module-name collision (matches import order).
            self.modules[module.name] = module
            self._collect(module)
        self._collect_class_attrs()
        self._scan_all()
        for cls, _, fkey in self.threaded_methods():
            self.mark_root(fkey, f"method of threaded class {cls.name}")

    # -- phase 1: module collection ------------------------------------------

    def _collect(self, module: _ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    module.aliases[local] = (
                        alias.name if alias.asname
                        else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.aliases[local] = f"{base}.{alias.name}"
            elif isinstance(node, ast.ClassDef):
                self._collect_class(module, node)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                key = f"{module.name}.{node.name}"
                module.functions[node.name] = key
                self.enqueue(key, module, None, node.name, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_global(module, node)

    @staticmethod
    def _import_base(
        module: _ModuleInfo, node: ast.ImportFrom
    ) -> str | None:
        if not node.level:
            return node.module
        # Relative import: resolve against this module's package.
        pkg = module.name.split(".")
        drop = node.level
        if len(pkg) < drop:
            return None
        pkg = pkg[: len(pkg) - drop]
        return ".".join([*pkg, node.module] if node.module else pkg) or None

    def _collect_class(
        self, module: _ModuleInfo, node: ast.ClassDef
    ) -> None:
        cls = _ClassInfo(
            key=f"{module.name}.{node.name}", module=module.name,
            name=node.name, node=node,
        )
        for base in node.bases:
            parts = _dotted_name(base)
            if parts:
                canonical = self.canonical(parts, module)
                cls.bases.append(canonical or ".".join(parts))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fkey = f"{cls.key}.{stmt.name}"
                cls.methods[stmt.name] = fkey
                self.enqueue(fkey, module, cls, stmt.name, stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                akey = self.annotation_canonical(
                    stmt.annotation, module)
                if akey:
                    cls.attr_types[stmt.target.id] = akey
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and isinstance(
                        stmt.value, ast.Call
                    ):
                        parts = _dotted_name(stmt.value.func)
                        canonical = (
                            self.canonical(parts, module)
                            if parts else None
                        )
                        if canonical:
                            cls.attr_types[target.id] = canonical
        module.classes[node.name] = cls
        self.class_index[cls.key] = cls

    def _collect_global(
        self, module: _ModuleInfo, node: ast.Assign | ast.AnnAssign
    ) -> None:
        """Record ``NAME = ctor(...)`` globals: their type, and whether
        they are module-level locks."""
        if isinstance(node, ast.Assign):
            targets = [
                t for t in node.targets if isinstance(t, ast.Name)
            ]
        else:
            targets = (
                [node.target]
                if isinstance(node.target, ast.Name) else []
            )
        if not targets or not isinstance(node.value, ast.Call):
            return
        parts = _dotted_name(node.value.func)
        canonical = self.canonical(parts, module) if parts else None
        if canonical is None:
            return
        for target in targets:
            module.global_types[target.id] = canonical
            if canonical in _LOCK_CTORS:
                module.global_locks.add(target.id)

    # -- phase 2: class attribute discipline ---------------------------------

    def _collect_class_attrs(self) -> None:
        for cls in self.class_index.values():
            module = self.modules[cls.module]
            for stmt in cls.node.body:
                if not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                annotations = {
                    arg.arg: arg.annotation
                    for arg in [
                        *stmt.args.posonlyargs, *stmt.args.args,
                        *stmt.args.kwonlyargs,
                    ]
                    if arg.annotation is not None
                }
                for sub in walk(stmt):
                    target = None
                    value = None
                    if isinstance(sub, ast.Assign):
                        value = sub.value
                        for t in sub.targets:
                            if (
                                isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                            ):
                                target = t
                    elif isinstance(sub, ast.AnnAssign) and isinstance(
                        sub.target, ast.Attribute
                    ):
                        t = sub.target
                        if (
                            isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        ):
                            target = t
                            value = sub.value
                            akey = self.annotation_canonical(
                                sub.annotation, module)
                            if akey:
                                cls.attr_types.setdefault(t.attr, akey)
                    if target is None:
                        continue
                    self._classify_attr(
                        cls, module, target.attr, value, annotations)

    def _classify_attr(
        self,
        cls: _ClassInfo,
        module: _ModuleInfo,
        attr: str,
        value: ast.expr | None,
        annotations: dict[str, ast.expr],
    ) -> None:
        canonical = None
        if isinstance(value, ast.Call):
            parts = _dotted_name(value.func)
            canonical = (
                self.canonical(parts, module) if parts else None
            )
        elif isinstance(value, ast.Name) and value.id in annotations:
            canonical = self.annotation_canonical(
                annotations[value.id], module)
        if canonical is None:
            return
        if canonical in _LOCK_CTORS:
            cls.lock_attrs.add(attr)
        elif canonical in _THREAD_SAFE_CTORS:
            cls.safe_attrs.add(attr)
            cls.attr_types.setdefault(attr, canonical)
        else:
            cls.attr_types.setdefault(attr, canonical)

    # -- name resolution ------------------------------------------------------

    def canonical(
        self, parts: Sequence[str], module: _ModuleInfo
    ) -> str | None:
        head = module.aliases.get(parts[0])
        if head is not None:
            return ".".join([head, *parts[1:]])
        if parts[0] in module.classes or parts[0] in module.functions:
            return ".".join([module.name, *parts])
        return None

    def annotation_canonical(
        self, ann: ast.expr, module: _ModuleInfo
    ) -> str | None:
        if isinstance(ann, ast.Subscript):
            ann = ann.value
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            name = ann.value.split("[")[0].strip()
            if name.isidentifier():
                return self.canonical([name], module)
            return None
        parts = _dotted_name(ann)
        if parts is None:
            return None
        if parts == ["Optional"] or parts[-1] == "Optional":
            return None
        return self.canonical(parts, module)

    def annotation_class(
        self, ann: ast.expr, module: _ModuleInfo
    ) -> str | None:
        canonical = self.annotation_canonical(ann, module)
        return self.resolve_class(canonical) if canonical else None

    def global_type(self, canonical: str, depth: int = 0) -> str | None:
        """Class key of a module-global variable named canonically
        (``repro.serve.protocol.FEATURE_CACHE`` → its constructor's
        class), chasing re-exports one level at a time."""
        if depth > 4:
            return None
        mod_name, _, name = canonical.rpartition(".")
        module = self.modules.get(mod_name)
        if module is None:
            return None
        ctor = module.global_types.get(name)
        if ctor is not None:
            return self.resolve_class(ctor)
        if name in module.aliases:
            return self.global_type(module.aliases[name], depth + 1)
        return None

    def resolve_class(self, canonical: str, depth: int = 0) -> str | None:
        """Class key for a canonical dotted name, chasing re-exports."""
        if canonical in self.class_index:
            return canonical
        if depth > 4:
            return None
        mod_name, _, name = canonical.rpartition(".")
        module = self.modules.get(mod_name)
        if module is None:
            return None
        if name in module.classes:
            return module.classes[name].key
        if name in module.aliases:
            return self.resolve_class(module.aliases[name], depth + 1)
        return None

    def resolve_function(
        self, canonical: str, depth: int = 0
    ) -> str | None:
        if depth > 4:
            return None
        mod_name, _, name = canonical.rpartition(".")
        module = self.modules.get(mod_name)
        if module is not None:
            if name in module.functions:
                return module.functions[name]
            if name in module.aliases:
                return self.resolve_function(
                    module.aliases[name], depth + 1)
            return None
        # "pkg.mod.Class.method" spelling.
        cls_key = self.resolve_class(mod_name) if mod_name else None
        if cls_key:
            return self.resolve_method(cls_key, name)
        return None

    def resolve_method(
        self, cls_key: str, name: str, depth: int = 0
    ) -> str | None:
        cls = self.class_index.get(cls_key)
        if cls is None or depth > 6:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_key = self.resolve_class(base)
            if base_key:
                found = self.resolve_method(base_key, name, depth + 1)
                if found:
                    return found
        return None

    # -- scanning -------------------------------------------------------------

    def enqueue(
        self,
        key: str,
        module: _ModuleInfo,
        cls: _ClassInfo | None,
        name: str,
        node: ast.AST,
    ) -> None:
        self._queue.append((key, module, cls, name, node))

    def _scan_all(self) -> None:
        while self._queue:
            key, module, cls, name, node = self._queue.pop(0)
            info = _FuncInfo(
                key=key, module=module, cls=cls, name=name, node=node)
            self.funcs[key] = info
            self.method_index.setdefault(name, []).append(key)
            _FunctionScanner(self, info).scan()

    # -- roots / reachability -------------------------------------------------

    def mark_root(self, key: str, reason: str) -> None:
        self.roots.setdefault(key, reason)

    def threaded_methods(self) -> Iterator[tuple[_ClassInfo, str, str]]:
        """``(class, method name, func key)`` for every method but
        ``__init__`` of a handler/threaded class."""
        for cls in self.class_index.values():
            if self._is_threaded_class(cls.key):
                for name, fkey in cls.methods.items():
                    if name != "__init__":
                        yield cls, name, fkey

    def _is_threaded_class(
        self, cls_key: str, depth: int = 0
    ) -> bool:
        cls = self.class_index.get(cls_key)
        if cls is None or depth > 6:
            return False
        for base in cls.bases:
            if base in _THREAD_ROOT_BASES:
                return True
            base_key = self.resolve_class(base)
            if base_key and self._is_threaded_class(base_key, depth + 1):
                return True
        return False

    def _reachability(
        self,
        roots: dict[str, str] | None = None,
        skip_dunder_callees: bool = False,
    ) -> dict[str, str]:
        """func key -> human-readable witness of the root it is reachable
        from.  ``roots`` defaults to the thread roots; the performance
        analyzer passes its own hot-root map to reuse the same BFS.

        ``skip_dunder_callees`` drops edges *into* dunder methods.  The
        name-based method fallback fans ``super().__init__()`` out to
        every ``__init__`` in the repo — sound over-approximation for
        lock discipline, but it would mark the whole codebase hot, so
        the perf analyzer treats constructor bodies as cold setup."""
        if roots is None:
            roots = self.roots
        callees: dict[str, set[str]] = {}
        for info in self.funcs.values():
            for site in info.calls:
                if skip_dunder_callees:
                    target = self.funcs.get(site.callee)
                    if target is not None and target.name.startswith("__"):
                        continue
                callees.setdefault(info.key, set()).add(site.callee)
        witness: dict[str, str] = {}
        frontier = []
        for key, reason in roots.items():
            if key in self.funcs and key not in witness:
                witness[key] = reason
                frontier.append(key)
        while frontier:
            current = frontier.pop()
            reason = witness[current]
            for nxt in callees.get(current, ()):
                if nxt in self.funcs and nxt not in witness:
                    witness[nxt] = reason
                    frontier.append(nxt)
        return witness

    def _entry_locks(self) -> dict[str, frozenset[str] | None]:
        """Locks guaranteed held on entry, by call-site intersection
        fixpoint.  None = no realizable in-repo call path (treated as
        "no locks" by consumers)."""
        callers: dict[str, list[tuple[str, frozenset[str]]]] = {}
        for info in self.funcs.values():
            for site in info.calls:
                if site.callee in self.funcs:
                    callers.setdefault(site.callee, []).append(
                        (info.key, site.locks))
        entry: dict[str, frozenset[str] | None] = {}
        frontier = []
        for key in self.funcs:
            if key in self.roots or key not in callers:
                entry[key] = frozenset()
                frontier.append(key)
            else:
                entry[key] = None
        callees_of: dict[str, set[str]] = {}
        for callee, sites in callers.items():
            for caller, _ in sites:
                callees_of.setdefault(caller, set()).add(callee)
        while frontier:
            current = frontier.pop()
            for callee in callees_of.get(current, ()):
                if callee in self.roots:
                    continue
                held_sets = [
                    entry[caller] | locks
                    for caller, locks in callers[callee]
                    if entry[caller] is not None
                ]
                if not held_sets:
                    continue
                new = frozenset.intersection(*held_sets)
                if new != entry[callee]:
                    entry[callee] = new
                    frontier.append(callee)
        return entry


# --------------------------------------------------------------------------
# rule evaluation
# --------------------------------------------------------------------------


class _RuleEvaluator:
    def __init__(self, analyzer: _Analyzer) -> None:
        self.an = analyzer
        self.found: list[Diagnostic] = []
        self.witness = analyzer._reachability()
        self.entry = analyzer._entry_locks()

    def _entry_of(self, key: str) -> frozenset[str]:
        return self.entry.get(key) or frozenset()

    def _emit(
        self,
        module: _ModuleInfo,
        lineno: int,
        rule: str,
        severity: Severity,
        message: str,
        hint: str = "",
    ) -> None:
        if module.suppress.is_suppressed(lineno, rule):
            return
        self.found.append(
            Diagnostic(
                rule, severity, f"{module.path}:{lineno}", message, hint)
        )

    def run(self) -> list[Diagnostic]:
        self._con002_torn_attributes()
        self._con005_check_then_act()
        self._con006_hostile_apis()
        self._con008_blocking_under_lock()
        return self.found

    # -- CON002 ---------------------------------------------------------------

    def _con002_torn_attributes(self) -> None:
        guarded: dict[tuple[str, str], set[str]] = {}
        for info in self.an.funcs.values():
            base = self._entry_of(info.key)
            for cls_key, attr, _, locks, is_mut in info.attr_events:
                cls = self.an.class_index.get(cls_key)
                if cls is None or not is_mut:
                    continue
                own = (base | locks) & cls.lock_ids()
                if own:
                    guarded.setdefault((cls_key, attr), set()).update(own)
        seen: set[tuple[str, str, int]] = set()
        for info in self.an.funcs.values():
            if info.name in _CONSTRUCTION_METHODS:
                continue
            base = self._entry_of(info.key)
            mutated_lines = {
                (cls_key, attr, lineno)
                for cls_key, attr, lineno, _, is_mut in info.attr_events
                if is_mut
            }
            for cls_key, attr, lineno, locks, is_mut in info.attr_events:
                locks_of = guarded.get((cls_key, attr))
                if not locks_of:
                    continue
                if (base | locks) & locks_of:
                    continue
                if not is_mut and (cls_key, attr, lineno) in mutated_lines:
                    continue  # the mutation finding covers this line
                cls = self.an.class_index[cls_key]
                lock_name = sorted(locks_of)[0].rpartition(".")[2]
                dedup = (cls_key, attr, lineno)
                if dedup in seen:
                    continue
                seen.add(dedup)
                if is_mut:
                    self._emit(
                        info.module, lineno, "CON002", Severity.ERROR,
                        f"attribute '{attr}' of {cls.name} is mutated "
                        f"here without {lock_name}, but other sites "
                        "mutate it under the lock (torn "
                        "read-modify-write)",
                        hint=f"wrap the mutation in `with self."
                        f"{lock_name}:` — a mixed discipline makes "
                        "every counter/total approximate",
                    )
                else:
                    self._emit(
                        info.module, lineno, "CON002", Severity.WARN,
                        f"attribute '{attr}' of {cls.name} is read here "
                        f"without {lock_name} while mutations happen "
                        "under the lock (torn snapshot)",
                        hint=f"take `with self.{lock_name}:` around the "
                        "read so observers see a consistent state",
                    )

    # -- CON005 ---------------------------------------------------------------

    def _con005_check_then_act(self) -> None:
        for info in self.an.funcs.values():
            reported: set[tuple[str, str]] = set()
            regions = info.regions
            for i, first in enumerate(regions):
                for second in regions[i + 1:]:
                    if second.lock != first.lock:
                        continue
                    if second.start <= first.end:
                        continue  # nested/overlapping, not re-acquired
                    for attr, read_line in sorted(first.reads.items()):
                        write_line = second.writes.get(attr)
                        if write_line is None:
                            continue
                        dedup = (first.lock, attr)
                        if dedup in reported:
                            continue
                        reported.add(dedup)
                        lock_name = first.lock.rpartition(".")[2]
                        self._emit(
                            info.module, write_line, "CON005",
                            Severity.WARN,
                            f"'{attr}' was checked under {lock_name} "
                            f"(line {read_line}) but is acted on under "
                            "a separate acquisition — the state may "
                            "have changed in between",
                            hint="re-validate inside the second "
                            "critical section, or hold the lock across "
                            "check and act; otherwise document why the "
                            "stale check is benign",
                        )

    # -- CON006 ---------------------------------------------------------------

    def _con006_hostile_apis(self) -> None:
        for info in self.an.funcs.values():
            if info.key not in self.witness:
                continue
            for description, lineno in info.hostile:
                self._emit(
                    info.module, lineno, "CON006", Severity.ERROR,
                    f"thread-hostile call reachable from "
                    f"{self.witness[info.key]}: {description}",
                    hint="server threads must not touch process-global "
                    "state; use per-call state (seeded Generator, "
                    "explicit warning lists) instead",
                )

    # -- CON008 ---------------------------------------------------------------

    def _con008_blocking_under_lock(self) -> None:
        for info in self.an.funcs.values():
            base = self._entry_of(info.key)
            for description, lineno, locks in info.blocking:
                held = base | locks
                if not held:
                    continue
                lock_name = sorted(held)[0]
                self._emit(
                    info.module, lineno, "CON008", Severity.WARN,
                    f"blocking call {description} while holding "
                    f"{lock_name}",
                    hint="do the I/O outside the critical section and "
                    "install the result under the lock; blocking under "
                    "a lock serialises every other thread behind disk "
                    "latency",
                )


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


CONCURRENCY_RULES: tuple[LintRule, ...] = (
    LintRule("CON000", Severity.ERROR, "unparseable/unreadable file"),
    LintRule("CON002", Severity.ERROR,
             "attribute mutated (ERROR) or read (WARN) outside the lock "
             "that guards it elsewhere"),
    LintRule("CON005", Severity.WARN,
             "check-then-act across separate acquisitions of one lock"),
    LintRule("CON006", Severity.ERROR,
             "thread-hostile API reachable from thread-entry code"),
    LintRule("CON008", Severity.WARN,
             "blocking I/O or sleep while holding a lock"),
)


def analyze_program(program: Program) -> list[Diagnostic]:
    """Analyze ``program`` as one whole; most severe findings first.
    Files that could not be read or parsed are ``CON000`` errors."""
    analyzer = program.analyzer
    found = program.failures("CON000")
    found.extend(_RuleEvaluator(analyzer).run())
    for module in analyzer.modules.values():
        found.extend(
            module.suppress.stale_diagnostics(module.path, ("CON",))
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
    "CONCURRENCY_RULES",
    "analyze_paths",
    "analyze_program",
    "analyze_source",
    "analyze_sources",
]
