"""One ``Program`` per lint run: source decoding, the per-domain ``xxx000``
rules, and proof that sharing one parse, one suppression index and one
call graph across DET, CON and PERF, within a run and across the loads of
an unchanged tree, changes no finding."""

import ast
import gc
import itertools
import json
import textwrap
import tokenize
import weakref

import pytest

from repro.analysis import concurrency, perf
from repro.caching import LRUCache
from repro.cli import main
from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.lint import Program, lint_paths, lint_program
from repro.lint import program as program_module
from tests.conftest import REPO_SRC

LATIN1_BYTES = b'x = "\xe9"\n'

#: ``--domain`` value -> (program entry point, path entry point).
DOMAINS = {
    "determinism": (lint_program, lint_paths),
    "concurrency": (concurrency.analyze_program, concurrency.analyze_paths),
    "performance": (perf.analyze_program, perf.analyze_paths),
}


def lint_json(capsys, *argv):
    rc = main(["lint", *argv, "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


class TestSourceEncoding:
    def test_undecodable_file_is_one_x000_per_domain(self, tmp_path, capsys):
        path = tmp_path / "latin.py"
        path.write_bytes(LATIN1_BYTES)
        for domain, rule in (("determinism", "DET000"),
                             ("concurrency", "CON000"),
                             ("performance", "PERF000")):
            rc, payload = lint_json(capsys, "--domain", domain, str(path))
            assert rc == 1
            [diag] = payload["diagnostics"]
            assert diag["rule"] == rule
            assert diag["message"].startswith("cannot read file")
            assert payload["summary"]["subjects"] == 0
        rc, payload = lint_json(capsys, "--domain", "all", str(path))
        assert rc == 1
        assert sorted(d["rule"] for d in payload["diagnostics"]) == [
            "CON000", "DET000", "PERF000"]

    def test_coding_cookie_is_honoured(self, tmp_path, capsys):
        path = tmp_path / "latin.py"
        path.write_bytes(b"# -*- coding: latin-1 -*-\n" + LATIN1_BYTES)
        assert main(["lint", "--domain", "all", str(path)]) == 0
        assert "0 errors, 0 warnings across 1 file" in capsys.readouterr().out
        [record] = Program.load([path]).files
        assert '"é"' in record.source


@pytest.fixture
def lint_tree(tmp_path):
    """Findings in every domain, stale suppressions of every domain on one
    file, a hot marker, a syntax error and a missing path."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "stale.py").write_text(textwrap.dedent(
        """
        import threading
        import time
        import warnings


        def worker():
            warnings.warn(str(time.time()))  # repro-lint: disable=DET005


        def spawn():
            threading.Thread(target=worker).start()


        def quiet():
            x = 1  # repro-lint: disable=DET002
            y = 2  # repro-lint: disable=CON002
            z = 3  # repro-lint: disable=PERF002
            return x + y + z
        """
    ))
    (root / "hot.py").write_text(textwrap.dedent(
        """
        import numpy as np


        # repro-perf: hot
        def accumulate(xs: np.ndarray):
            out = []
            for i in range(len(xs)):
                buf = np.zeros(4)
                out.append(xs[i] + buf)
            return out
        """
    ))
    (root / "broken.py").write_text("def broken(:\n")
    return [str(root), str(tmp_path / "absent.py")]


class TestOneProgramForAllDomains:
    def test_all_equals_sorted_single_domain_runs(self, lint_tree, capsys):
        rc, combined = lint_json(capsys, "--domain", "all", *lint_tree)
        singles = []
        for domain in DOMAINS:
            _, payload = lint_json(capsys, "--domain", domain, *lint_tree)
            assert payload["summary"]["subjects"] == 3
            singles += payload["diagnostics"]
        expected = sort_diagnostics(
            Diagnostic(d["rule"], Severity[d["severity"]], d["location"],
                       d["message"], d["hint"])
            for d in singles
        )
        assert rc == 1
        assert combined["diagnostics"] == [d.to_dict() for d in expected]
        assert combined["summary"]["subjects"] == 3
        rules = [d["rule"] for d in combined["diagnostics"]]
        for rule in ("DET000", "CON000", "PERF000"):
            assert rules.count(rule) == 2  # broken.py and absent.py
        assert rules.count("SUP001") == 3  # one stale comment per domain
        assert {"CON006", "PERF001", "PERF002"} <= set(rules)
        assert "DET005" not in rules  # its suppression is used

    def test_reuse_and_domain_order_do_not_change_findings(self, lint_tree):
        program = Program.load(lint_tree)
        first = {name: run(program) for name, (run, _) in DOMAINS.items()}
        again = {name: run(program) for name, (run, _) in DOMAINS.items()}
        fresh = Program.load(lint_tree)
        backwards = {name: DOMAINS[name][0](fresh)
                     for name in reversed(list(DOMAINS))}
        separate = {name: by_path(lint_tree)[0]
                    for name, (_, by_path) in DOMAINS.items()}
        assert first == again == backwards == separate
        assert program.analyzer is program.analyzer

    def test_domain_all_parses_each_file_once(self, lint_tree, capsys,
                                              monkeypatch):
        parses = []
        scans = []
        parse = ast.parse
        scan_all = concurrency._Analyzer._scan_all

        def counted_parse(*args, **kwargs):
            parses.append(kwargs.get("filename"))
            return parse(*args, **kwargs)

        def counted_scan(self):
            scans.append(self)
            return scan_all(self)

        monkeypatch.setattr(ast, "parse", counted_parse)
        monkeypatch.setattr(concurrency._Analyzer, "_scan_all", counted_scan)
        assert main(["lint", "--domain", "all", *lint_tree]) == 1
        capsys.readouterr()
        # three readable files (one fails to parse), the missing one unread
        assert len(parses) == len(set(parses)) == 3
        assert len(scans) == 1


def old_read_error(path):
    """The ``cannot read file`` message a :func:`tokenize.open` read of
    ``path`` gives, or None: the reference the byte-based loader meets."""
    try:
        with tokenize.open(path) as fh:
            fh.read()
    except (OSError, SyntaxError, UnicodeDecodeError) as exc:
        return f"cannot read file: {exc}"
    return None


def cold_cache(monkeypatch):
    """Start the program cache empty, so the next load parses."""
    monkeypatch.setattr(program_module, "PROGRAM_CACHE",
                        LRUCache(program_module.PROGRAM_CACHE_SIZE))


def findings(tree):
    return [d.to_dict() for d in lint_paths(tree)[0]]


class TestKeptLoads:
    def test_unchanged_tree_parses_and_scans_once(self, lint_tree,
                                                  monkeypatch):
        tree = lint_tree[:1]  # the missing path would keep nothing
        parses = []
        scans = []
        parse = ast.parse
        scan_all = concurrency._Analyzer._scan_all

        def counted_parse(*args, **kwargs):
            parses.append(kwargs.get("filename"))
            return parse(*args, **kwargs)

        def counted_scan(self):
            scans.append(self)
            return scan_all(self)

        monkeypatch.setattr(ast, "parse", counted_parse)
        monkeypatch.setattr(concurrency._Analyzer, "_scan_all", counted_scan)
        results = [by_path(tree) for _, by_path in DOMAINS.values()]
        assert [n for _, n in results] == [3, 3, 3]
        # hot.py, stale.py and broken.py, which fails to parse
        assert len(parses) == len(set(parses)) == 3
        assert len(scans) == 1
        program = Program.load(tree)
        assert Program.load(tree) is program
        assert program.analyzer is scans[0]

    def test_edit_add_and_remove_give_a_fresh_program(self, tmp_path):
        root = tmp_path / "pkg"
        root.mkdir()
        cmp = root / "cmp.py"
        cmp.write_text("def f(t):\n    return t == 1.5\n")
        tree = [str(root)]
        first = Program.load(tree)
        assert [d["rule"] for d in findings(tree)] == ["DET003"]

        cmp.write_text("def f(t):\n    return t <= 1.5\n")  # one byte
        edited = Program.load(tree)
        assert edited is not first
        assert findings(tree) == []

        (root / "cache.py").write_text(
            "import functools\n\n\n@functools.lru_cache\ndef g():\n"
            "    return 1\n")
        added = Program.load(tree)
        assert added is not edited
        assert added.n_files == 2
        assert [d["rule"] for d in findings(tree)] == ["DET002"]

        cmp.unlink()
        removed = Program.load(tree)
        assert removed not in (first, edited, added)
        assert [f.path for f in removed.files] == [str(root / "cache.py")]
        # an earlier load is left as it was read
        assert [f.path for f in first.files] == [str(cmp)]
        assert "==" in first.files[0].source

    def test_relative_and_absolute_spellings_name_files_as_given(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "cmp.py").write_text("def f(t):\n    return t == 1.5\n")
        monkeypatch.chdir(tmp_path)
        relative = Program.load(["pkg"])
        absolute = Program.load([str(root)])
        assert relative is not absolute
        assert Program.load(["pkg"]) is relative
        assert [f.path for f in relative.files] == ["pkg/cmp.py"]
        assert [f.path for f in absolute.files] == [str(root / "cmp.py")]
        assert [d["location"] for d in findings(["pkg"])] == ["pkg/cmp.py:2"]
        assert [d["location"] for d in findings([str(root)])] == [
            f"{root / 'cmp.py'}:2"]

    def test_unreadable_paths_are_never_kept(self, tmp_path, monkeypatch):
        cold_cache(monkeypatch)
        root = tmp_path / "pkg"
        root.mkdir()
        (root / "ok.py").write_text("x = 1\n")
        late = root / "late.py"
        late.mkdir()  # found by the walk, but open() fails
        absent = tmp_path / "absent.py"
        tree = [str(root), str(absent)]
        loads = [Program.load(tree) for _ in range(2)]
        assert loads[0] is not loads[1]
        for program in loads:
            assert [d.message for d in program.failures("X000")] == [
                old_read_error(late), old_read_error(absent)]
            assert program.n_files == 1
        assert len(program_module.PROGRAM_CACHE) == 0

        late.rmdir()
        late.write_text("def f(t):\n    return t == 1.5\n")
        absent.write_text("y = 2\n")
        program = Program.load(tree)
        assert program.failures("X000") == []
        assert program.n_files == 3
        assert [d["rule"] for d in findings(tree)] == ["DET003"]
        assert Program.load(tree) is program

    def test_every_domain_order_twice_over_one_program(
        self, lint_tree, monkeypatch
    ):
        tree = lint_tree[:1]
        expected = {}
        for name, (_, by_path) in DOMAINS.items():
            cold_cache(monkeypatch)
            expected[name] = by_path(tree)[0]
        assert sum(d.rule == "SUP001"
                   for diags in expected.values() for d in diags) == 3
        for order in itertools.permutations(DOMAINS):
            cold_cache(monkeypatch)
            program = Program.load(tree)
            for _ in range(2):
                for name in order:
                    assert DOMAINS[name][1](tree)[0] == expected[name]
            assert Program.load(tree) is program

    @pytest.mark.parametrize("data", [
        b"\xef\xbb\xbfx = 1\n",                       # UTF-8 BOM
        b"\xef\xbb\xbf# -*- coding: latin-1 -*-\nx = 1\n",  # BOM vs cookie
        b"# -*- coding: latin-1 -*-\n" + LATIN1_BYTES,  # latin-1 cookie
        b"# -*- coding: nope -*-\nx = 1\n",             # bad cookie
        LATIN1_BYTES,                                    # undecodable line 1
        b"x = 1\ny = 2\n" + LATIN1_BYTES,                # undecodable later
        b"x = 1\r\ny = 2\rz = 3\n",                      # CRLF and CR
    ])
    def test_decoding_matches_tokenize_open(self, tmp_path, data):
        path = tmp_path / "case.py"
        path.write_bytes(data)
        [record] = Program.load([path]).files
        message = old_read_error(path)
        if message is None:
            with tokenize.open(path) as fh:
                assert record.source == fh.read()
            assert record.error is None
        else:
            assert record.error == (str(path), message)
            assert record.source is None

    def test_bad_cookie_error_names_the_file(self, tmp_path):
        # detect_encoding names the file only when its reader has `.name`
        path = tmp_path / "cookie.py"
        path.write_bytes(b"# -*- coding: nope -*-\nx = 1\n")
        [record] = Program.load([path]).files
        assert record.error == (
            str(path), f"cannot read file: unknown encoding for {str(path)!r}: nope")


#: Ways to build a ``Program`` from ``lint_tree``: a kept load, a load
#: that meets a missing file, and a snippet that does not parse.
BUILDS = {
    "kept": lambda tree: Program.load(tree[:1]),
    "unreadable": lambda tree: Program.load(tree),
    "syntax error": lambda tree: Program.from_sources(
        [("bad.py", "def broken(:\n")]),
}


class TestTenuredBuild:
    """Each ``Program`` is built with the cyclic collector paused and its
    objects moved into the oldest generation; the caller's collector
    state comes back as it was."""

    def test_every_parsed_tree_is_in_the_oldest_generation(
        self, monkeypatch
    ):
        cold_cache(monkeypatch)
        program = Program.load([REPO_SRC])
        oldest = {id(obj) for obj in gc.get_objects(generation=2)}
        trees = [f.tree for f in program.parsed]
        assert len(trees) > 100
        assert all(isinstance(tree, ast.Module) for tree in trees)
        assert all(id(tree) in oldest for tree in trees)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("build", BUILDS)
    def test_collector_state_is_restored(self, build, enabled, lint_tree,
                                         monkeypatch):
        cold_cache(monkeypatch)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            program = BUILDS[build](lint_tree)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert program.failures("X000")
        assert len(program_module.PROGRAM_CACHE) == (build == "kept")

    @pytest.mark.parametrize("build", BUILDS)
    def test_a_callers_frozen_objects_stay_frozen(self, build, lint_tree,
                                                  monkeypatch):
        cold_cache(monkeypatch)
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            BUILDS[build](lint_tree)
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_a_dropped_program_and_its_call_graph_are_collected(
        self, lint_tree, monkeypatch
    ):
        # The call graph's module and class records refer to each other,
        # and through them to the trees: a cycle only a full collection
        # frees.  Had a later build frozen it, it would never be freed.
        cold_cache(monkeypatch)
        program = Program.load(lint_tree)  # not kept: absent.py
        assert program.analyzer.modules
        trees = [weakref.ref(f.tree) for f in program.parsed]
        del program
        for build in BUILDS.values():
            build(lint_tree)
        gc.collect()
        assert [tree() for tree in trees] == [None, None]
