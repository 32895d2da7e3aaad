"""The importer audit: which public names of ``src/repro`` only tests use.

Each case lays out a small repository under ``tmp_path`` and audits it;
the last class audits this repository itself.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from tests import importer_audit
from tests.importer_audit import audit

#: The names the repository keeps on purpose although only tests use
#: them (ROADMAP item 17 records why); the CI step lists the same seven.
KEPT = (
    "repro.analysis.coefficients:sanity_check",
    "repro.core.epoch:accumulated_step_time",
    "repro.core.refinement:model_specific_fit",
    "repro.distributed.cluster:single_gpu_cluster",
    "repro.distributed.paramserver:crossover_worker_count",
    "repro.extensions.transformer:vit_training_campaign",
    "repro.serve.registry:write_manifest",
)


def _audit(root: Path, files: dict[str, str]) -> list[str]:
    """Write ``files`` (relative path -> source) under ``root``, audit it."""
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return audit(root)


class TestUsers:
    def test_a_name_nothing_loads_is_listed(self, tmp_path):
        assert _audit(tmp_path, {"src/repro/a.py": "def f(): pass\n"}) == [
            "repro.a:f"
        ]

    @pytest.mark.parametrize("user", [
        "src/tool.py", "benchmarks/b.py", "examples/e.py", "perfbench/p.py",
    ])
    def test_a_load_outside_the_package_counts(self, tmp_path, user):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def f(): pass\n",
            user: "from repro.a import f\nf()\n",
        }) == []

    def test_a_test_is_not_a_user(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def f(): pass\n",
            "tests/test_a.py": "from repro.a import f\nf()\n",
        }) == ["repro.a:f"]

    def test_an_attribute_load_counts(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def f(): pass\n",
            "examples/e.py": "import repro.a\nrepro.a.f()\n",
        }) == []

    def test_a_string_entry_point_counts(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "class Bench:\n    def run(self): pass\n",
            "perfbench/w.py": 'ENTRY = "repro.a:Bench.run"\n',
        }) == []

    def test_a_docs_page_mention_counts(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def f(): pass\n",
            "docs/guide.md": "Call `f` once per run.\n",
        }) == []

    def test_markdown_outside_docs_is_not_a_user(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def f(): pass\n",
            "README.md": "Call `f` once per run.\n",
        }) == ["repro.a:f"]


class TestNonUses:
    def test_imports_and_reexport_tables_are_not_uses(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def f(): pass\n",
            "src/repro/__init__.py": """\
                from repro.a import f
                __all__ = ["f"]
                _EXPORTS = {"f": "repro.a"}
            """,
        }) == ["repro.a:f"]

    def test_a_docstring_mention_is_not_a_use(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def f(): pass\n",
            "src/repro/b.py": '''\
                """Module notes: see f."""

                def _g():
                    """Like f."""
            ''',
        }) == ["repro.a:f"]

    def test_private_names_are_not_audited(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def _f(): pass\nclass _C: pass\n",
        }) == []


class TestTransitive:
    def test_a_helper_used_only_by_a_listed_name_is_listed(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": """\
                def helper(): pass

                def f():
                    return helper()
            """,
        }) == ["repro.a:f", "repro.a:helper"]

    def test_a_chain_across_modules_is_listed(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": "def first(): pass\n",
            "src/repro/b.py": """\
                from repro.a import first

                def second():
                    return first()
            """,
            "src/repro/c.py": """\
                from repro.b import second

                def third():
                    return second()
            """,
        }) == ["repro.a:first", "repro.b:second", "repro.c:third"]

    def test_a_class_used_only_in_a_listed_class_is_listed(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": """\
                class Point: pass

                class Segment:
                    start: Point
            """,
        }) == ["repro.a:Point", "repro.a:Segment"]

    def test_a_helper_a_used_name_shares_stays(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": """\
                def helper(): pass

                def f():
                    return helper()

                def g():
                    return helper()
            """,
            "benchmarks/b.py": "from repro.a import g\ng()\n",
        }) == ["repro.a:f"]

    def test_a_load_in_a_private_definition_counts(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": """\
                def helper(): pass

                def _private():
                    return helper()
            """,
        }) == []

    def test_a_load_in_a_plain_statement_counts(self, tmp_path):
        assert _audit(tmp_path, {
            "src/repro/a.py": """\
                def helper(): pass

                if True:
                    helper()
            """,
        }) == []

    def test_a_recursive_definition_is_never_listed(self, tmp_path):
        # It names itself, and its own load keeps it: the audit errs
        # towards too short a list.
        assert _audit(tmp_path, {
            "src/repro/a.py": """\
                def countdown(n):
                    return countdown(n - 1) if n else 0
            """,
        }) == []


class TestScript:
    def test_main_prints_one_line_per_name_then_the_count(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(importer_audit, "audit",
                            lambda: ["repro.a:f", "repro.b:g"])
        assert importer_audit.main() == 0
        out, err = capsys.readouterr()
        assert out.splitlines() == ["repro.a:f", "repro.b:g"]
        assert err.startswith("2 public top-level name(s)")


class TestRepository:
    def test_only_the_kept_names_are_used_by_tests_alone(self):
        assert audit() == sorted(KEPT)
