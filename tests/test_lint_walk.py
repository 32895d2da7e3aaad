"""``repro.lint.walk``: the table-dispatched ``Visitor`` and ``walk`` that
the DET, CON and PERF domains traverse with, checked against the stdlib's
``ast.NodeVisitor`` and ``ast.walk`` on every file of the repository and
of perfbench's frozen corpus; and the suppression index's tokenize cutoff,
checked against a full tokenization."""

import ast
import dataclasses
import io
import sys
import tarfile
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis import concurrency, perf
from repro.lint import Program, SuppressionIndex, lint_program, rules
from repro.lint import walk as walk_module
from repro.lint.suppress import SUPPRESS_PATTERN
from repro.lint.walk import Visitor, walk

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "perfbench" / "corpus" / "repro-src.tar.gz"
#: The trees checked besides the corpus; ``src/repro`` first.
TREES = ("src/repro", "tests", "benchmarks", "examples", "perfbench")

#: The analyzers that derive from ``Visitor``.
ANALYZERS = (
    rules._FileLinter,
    concurrency._FunctionScanner,
    perf._PerfScanner,
)

#: The lint suites whose multi-line string fixtures exercise every rule.
FIXTURE_SUITES = ("test_lint.py", "test_concurrency_lint.py",
                  "test_perf_lint.py")


def corpus_sources() -> list[tuple[str, bytes]]:
    """The frozen corpus members, read from the tarball."""
    with tarfile.open(CORPUS, "r:gz") as tar:
        return sorted((m.name, tar.extractfile(m).read())
                      for m in tar.getmembers() if m.isfile())


@pytest.fixture(scope="module")
def trees(repo_program) -> list[tuple[str, ast.Module]]:
    """Every file of ``TREES`` and of the corpus, parsed as the lint
    domains parse them; ``src/repro`` comes from the session's parse."""
    files = sorted(p for tree in TREES[1:] for p in (REPO / tree).rglob("*.py"))
    rest = Program.load(files).files + Program.from_sources(
        (name, data.decode()) for name, data in corpus_sources()).files
    assert [f.error for f in rest if f.error] == []
    return [(f.path, f.tree) for f in repo_program.parsed + list(rest)]


def visit_methods(cls: type) -> list[str]:
    """The ``visit_*`` names a visitor class defines itself."""
    return sorted({name for klass in cls.__mro__
                   if klass not in (Visitor, ast.NodeVisitor, object)
                   for name in vars(klass) if name.startswith("visit_")})


def recorder(base: type, names: list[str]) -> type:
    """A ``base`` subclass whose methods ``names`` each log
    ``(name, node)`` and descend with ``generic_visit``."""

    def method(name):
        def record(self, node):
            self.log.append((name, node))
            self.generic_visit(node)
        return record

    namespace = {name: method(name) for name in names}
    namespace["__init__"] = lambda self: setattr(self, "log", [])
    return type(f"Recording{base.__name__}", (base,), namespace)


def visit_log(cls: type, tree: ast.AST) -> list[tuple[str, int]]:
    visitor = cls()
    visitor.visit(tree)
    return [(name, id(node)) for name, node in visitor.log]


class _StdlibOrder(ast.NodeVisitor):
    """Every node, in the order ``ast.NodeVisitor`` visits them."""

    def __init__(self):
        self.order = []

    def generic_visit(self, node):
        self.order.append(node)
        super().generic_visit(node)


def stdlib_log(order: list[ast.AST], names: list[str]) -> list[tuple]:
    """What a ``recorder(ast.NodeVisitor, names)`` logs: each of its
    methods descends, so the stdlib visits every node in ``order``."""
    wanted = set(names)
    return [(name, id(node)) for node in order
            if (name := "visit_" + type(node).__name__) in wanted]


@pytest.fixture(scope="module")
def stdlib_orders(trees) -> list[list[ast.AST]]:
    orders = []
    for _, tree in trees:
        visitor = _StdlibOrder()
        visitor.visit(tree)
        orders.append(visitor.order)
    return orders


class TestMatchesStdlib:
    def test_every_file_was_read(self, trees):
        names = {name for name, _ in trees}
        assert any(name.endswith("src/repro/lint/walk.py") for name in names)
        assert sum(not name.startswith("/") for name in names) == 119

    def test_walk_yields_ast_walk_nodes_in_order(self, trees):
        for name, tree in trees:
            assert [*map(id, walk(tree))] == [*map(id, ast.walk(tree))], name

    def test_walk_of_a_subtree(self):
        tree = ast.parse("def f(a, b=1):\n    return [a + b for a in b]\n")
        ret = tree.body[0].body[0]
        assert [*map(id, walk(ret))] == [*map(id, ast.walk(ret))]

    @pytest.mark.parametrize("analyzer", ANALYZERS,
                             ids=lambda cls: cls.__name__)
    def test_visit_sequence_equals_node_visitor(self, trees, stdlib_orders,
                                                analyzer):
        names = visit_methods(analyzer)
        assert names  # the analyzer defines its rules as visit_* methods
        ours = recorder(Visitor, names)
        for (name, tree), order in zip(trees, stdlib_orders):
            assert visit_log(ours, tree) == stdlib_log(order, names), name

    def test_stdlib_log_is_a_recording_node_visitor(self, trees,
                                                    stdlib_orders):
        names = visit_methods(concurrency._FunctionScanner)
        stdlib = recorder(ast.NodeVisitor, names)
        for (name, tree), order in list(zip(trees, stdlib_orders))[:20]:
            assert visit_log(stdlib, tree) == stdlib_log(order, names), name


def fixture_sources() -> list[tuple[str, str]]:
    """Each multi-line string of the lint suites that parses as a module,
    as its own file."""
    found = []
    for suite in FIXTURE_SUITES:
        for node in walk(ast.parse((REPO / "tests" / suite).read_text())):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and "\n" in node.value):
                continue
            source = textwrap.dedent(node.value)
            try:
                ast.parse(source)
            except SyntaxError:
                continue
            found.append((f"fixtures/f{len(found)}.py", source))
    return found


def domain_findings(program: Program) -> dict[str, list]:
    # Each run gets unused suppression indexes, so a missed suppressed
    # finding shows as a stale SUP001.
    program = Program(tuple(
        dataclasses.replace(f, suppress=SuppressionIndex(f.source))
        if f.tree is not None else f for f in program.files))
    return {
        "DET": lint_program(program),
        "CON": concurrency.analyze_program(program),
        "PERF": perf.analyze_program(program),
    }


def test_domain_findings_equal_the_stdlib_traversal(monkeypatch):
    program = Program.from_sources(fixture_sources())
    ours = domain_findings(program)
    monkeypatch.setattr(Visitor, "visit", ast.NodeVisitor.visit)
    monkeypatch.setattr(Visitor, "generic_visit",
                        ast.NodeVisitor.generic_visit)
    monkeypatch.setattr(concurrency, "walk", ast.walk)
    monkeypatch.setattr(perf, "walk", ast.walk)
    assert domain_findings(program) == ours
    # Not vacuous: the fixtures make several rules of each domain fire.
    for domain, found in ours.items():
        fired = {d.rule for d in found if d.rule.startswith(domain)}
        assert len(fired) >= 4, (domain, fired)


class TestBarrenNodes:
    SOURCE = textwrap.dedent("""
        import os.path as osp
        from math import pi, tau as two_pi

        def area(r: float, *, scale=2) -> float:
            x = y = -r ** 2 * pi
            del y
            return not x and scale or (x < 1.5 <= two_pi)
    """)

    @pytest.mark.parametrize("node_cls", [ast.Name, ast.Constant, ast.Load,
                                          ast.Store, ast.Del, ast.alias])
    def test_a_method_receives_every_such_node(self, node_cls):
        tree = ast.parse(self.SOURCE)
        names = [f"visit_{node_cls.__name__}"]
        log = visit_log(recorder(Visitor, names), tree)
        assert log == visit_log(recorder(ast.NodeVisitor, names), tree)
        assert len(log) == sum(type(n) is node_cls for n in ast.walk(tree))
        assert log

    def test_a_visitor_without_methods_skips_them(self):
        class Plain(Visitor):
            pass

        # The stdlib's deprecated visit_Constant shim is no method.
        assert {ast.Name, ast.Constant, ast.Load, ast.alias,
                ast.Add} <= Plain._barren
        assert ast.Attribute not in Plain._barren

    def test_return_values_pass_through(self):
        class Names(Visitor):
            def visit_Name(self, node):
                return node.id

        assert Names().visit(ast.parse("x", mode="eval").body) == "x"


class TestDispatchTables:
    class Parent(Visitor):
        def __init__(self):
            self.log = []

        def visit_Name(self, node):
            self.log.append("parent")

    class Child(Parent):
        def visit_Name(self, node):
            self.log.append("child")

    class Heir(Parent):
        pass

    @pytest.mark.parametrize("order", [(Parent, Child, Heir),
                                       (Child, Heir, Parent),
                                       (Heir, Parent, Child)],
                             ids=["parent-first", "child-first",
                                  "heir-first"])
    def test_each_class_dispatches_to_its_own_method(self, order):
        expected = {self.Parent: "parent", self.Child: "child",
                    self.Heir: "parent"}
        tree = ast.parse("x + y")
        for cls in order:
            visitor = cls()
            visitor.visit(tree)
            assert visitor.log == [expected[cls]] * 2, cls.__name__


def full_index(source: str) -> dict[int, set[str]]:
    """Suppression entries from tokenizing the whole file, the way the
    index read it before it stopped at the last marker line."""
    found: dict[int, set[str]] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            match = (SUPPRESS_PATTERN.search(tok.string)
                     if tok.type == tokenize.COMMENT else None)
            if match:
                found.setdefault(tok.start[0], set()).update(
                    r.strip() for r in match.group(1).split(",")
                    if r.strip())
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return found


class TestSuppressionCutoff:
    @pytest.mark.parametrize("source", [
        # a disable= in a docstring after the last real comment
        'x = time.time()  # repro-lint: disable=DET005\n'
        'def f():\n'
        '    """y = time.time()  # repro-lint: disable=DET005"""\n'
        '    return 1\n',
        # a tokenize error after the last marker line
        'x = time.time()  # repro-lint: disable=DET005\n'
        'y = (1,\n'
        'z = 2\n',
        # the only marker is inside a string
        's = "# repro-lint: disable=DET005"\n'
        't = 1  # a comment\n',
        # a string spanning the last marker line, then its comment
        'x = """\n'
        '# repro-lint: disable=DET003\n'
        '"""  # repro-lint: disable=DET005, CON008\n'
        '# a trailing comment\n',
        # an indentation error before the marker
        'if x:\n'
        '        a = 1\n'
        '    b = 2  # repro-lint: disable=DET005\n',
    ], ids=["docstring", "token-error", "string-only", "spanning-string",
            "indentation-error"])
    def test_index_equals_a_full_tokenization(self, source):
        assert SuppressionIndex(source)._rules_by_line == full_index(source)

    def test_the_last_marker_line_is_read(self):
        source = "a = 1\nb = time.time()  # repro-lint: disable=DET005\n"
        assert SuppressionIndex(source)._rules_by_line == {2: {"DET005"}}

    def test_every_corpus_marker_file_indexes_as_before(self):
        sources = [data.decode() for _, data in corpus_sources()]
        marked = [source for source in sources if "repro-lint" in source]
        assert len(marked) == 13
        for source in marked:
            assert SuppressionIndex(source)._rules_by_line == (
                full_index(source))


def test_walk_module_is_stdlib_only():
    tree = ast.parse(Path(walk_module.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in imported} <= set(
        sys.stdlib_module_names), imported
