"""One ``Program`` per lint run: source decoding, the per-domain ``xxx000``
rules, and proof that sharing one parse, one suppression index and one
call graph across DET, CON and PERF changes no finding."""

import ast
import json
import textwrap

import pytest

from repro.analysis import concurrency, perf
from repro.cli import main
from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.lint import Program, lint_paths, lint_program

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

        STATE = {}


        def worker():
            STATE["k"] = time.time()  # repro-lint: disable=DET005


        def spawn():
            threading.Thread(target=worker).start()


        def quiet():
            x = 1  # repro-lint: disable=DET001
            y = 2  # repro-lint: disable=CON001
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
        assert {"CON001", "PERF001", "PERF002"} <= set(rules)
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
