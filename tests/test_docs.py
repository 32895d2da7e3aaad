"""Documentation correctness: every Python snippet in the docs executes.

Docs that rot are worse than no docs; this extracts fenced ``python``
blocks from the tutorial and the README and runs them in one shared
namespace (so later snippets can build on earlier ones, as they do in the
prose).
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _snippets(path: Path) -> list[str]:
    return _FENCE.findall(path.read_text())


class TestTutorialSnippets:
    def test_tutorial_snippets_run_in_order(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)  # snippets write json files
        namespace: dict = {}
        snippets = _snippets(ROOT / "docs" / "tutorial.md")
        assert len(snippets) >= 8
        for i, snippet in enumerate(snippets):
            try:
                exec(compile(snippet, f"tutorial_snippet_{i}", "exec"),
                     namespace)
            except Exception as exc:  # pragma: no cover - diagnostic
                pytest.fail(
                    f"tutorial snippet {i} failed: {exc}\n---\n{snippet}"
                )


class TestTransformsDocSnippets:
    def test_transforms_snippets_run_in_order(self, capsys):
        namespace: dict = {}
        snippets = _snippets(ROOT / "docs" / "transforms.md")
        assert len(snippets) >= 2
        for i, snippet in enumerate(snippets):
            try:
                exec(compile(snippet, f"transforms_snippet_{i}", "exec"),
                     namespace)
            except Exception as exc:  # pragma: no cover - diagnostic
                pytest.fail(
                    f"transforms snippet {i} failed: {exc}\n---\n{snippet}"
                )


class TestReadmeSnippets:
    def test_readme_snippets_run_in_order(self, capsys):
        namespace: dict = {}
        snippets = _snippets(ROOT / "README.md")
        assert len(snippets) >= 1
        for i, snippet in enumerate(snippets):
            try:
                exec(compile(snippet, f"readme_snippet_{i}", "exec"),
                     namespace)
            except Exception as exc:  # pragma: no cover - diagnostic
                pytest.fail(
                    f"README snippet {i} failed: {exc}\n---\n{snippet}"
                )


class TestDocsMentionRealArtifacts:
    @pytest.mark.parametrize(
        "doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
            path.relative_to(ROOT).as_posix()
            for path in (ROOT / "docs").glob("*.md")
        )
    )
    def test_referenced_paths_exist(self, doc):
        """Every repository path a doc points at must exist."""
        text = (ROOT / doc).read_text()
        for match in re.finditer(
            r"`((?:examples|benchmarks|docs|src/repro|perfbench|tests)/"
            r"[\w./-]+\.(?:py|md))`",
            text,
        ):
            assert (ROOT / match.group(1)).exists(), match.group(1)

    def test_experiments_md_covers_every_bench(self):
        """EXPERIMENTS.md references every benchmark file."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
            assert bench.name in text, bench.name

def _registries():
    from repro.analysis.concurrency import CONCURRENCY_RULES
    from repro.analysis.perf import PERF_RULES
    from repro.lint import LINT_RULES

    return {
        "Determinism rules": LINT_RULES,
        "Concurrency rules": CONCURRENCY_RULES,
        "Performance rules": PERF_RULES,
    }


_RULE_ID = re.compile(r"\b(?:DET|CON|PERF|SUP)\d{3}\b")


class TestLintRuleCatalogue:
    """`docs/static-analysis.md` and the rule registries list the same
    lint rules, and no doc or module names a rule that does not exist."""

    @staticmethod
    def _table(heading: str) -> dict[str, str]:
        """``{rule id: severity cell}`` of the table under ``## heading``."""
        text = (ROOT / "docs" / "static-analysis.md").read_text()
        sections = [s for s in text.split("\n## ") if s.startswith(heading)]
        assert len(sections) == 1, heading
        return dict(re.findall(r"^\| ([A-Z]+\d{3}) \| ([^|]+) \|",
                               sections[0], re.MULTILINE))

    @pytest.mark.parametrize("heading", sorted(_registries()))
    def test_table_matches_registry(self, heading):
        table = self._table(heading)
        registry = _registries()[heading]
        assert sorted(table) == sorted(r.rule for r in registry)
        for rule in registry:
            assert rule.severity.name in table[rule.rule], rule.rule

    def test_every_named_rule_is_registered(self):
        known = {r.rule for rules in _registries().values() for r in rules}
        texts = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                 *sorted((ROOT / "src" / "repro").rglob("*.py"))]
        for path in texts:
            named = set(_RULE_ID.findall(path.read_text(encoding="utf-8")))
            assert named <= known, (path.relative_to(ROOT), named - known)
