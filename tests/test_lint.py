"""Determinism-hazard linter: rule coverage, suppression, repo cleanliness.

Each rule gets a positive snippet (must fire, with the exact rule id) and a
negative twin (the blessed alternative must NOT fire) — the linter is only
useful if routing through ``LRUCache`` / ``perf_counter`` / an explicit
``rcond=`` keeps the build green.
"""

import json
import textwrap

import pytest

from repro.cli import main
from repro.diagnostics import Severity
from repro.lint import Program, lint_paths, lint_program, lint_source
from tests.conftest import REPO_SRC


def rules_of(source: str):
    return [d.rule for d in lint_source(textwrap.dedent(source))]


class TestUnboundedCacheDET002:
    def test_lru_cache_decorator_fires(self):
        assert "DET002" in rules_of("""
            from functools import lru_cache

            @lru_cache(maxsize=256)
            def f(x):
                return x
        """)

    def test_bare_decorator_fires(self):
        assert "DET002" in rules_of("""
            from functools import lru_cache

            @lru_cache
            def f(x):
                return x
        """)

    def test_functools_cache_fires(self):
        assert "DET002" in rules_of("""
            import functools

            @functools.cache
            def f(x):
                return x
        """)

    def test_aliased_import_fires(self):
        assert "DET002" in rules_of("""
            from functools import lru_cache as memo
            g = memo(maxsize=None)(len)
        """)

    def test_bounded_lru_cache_class_is_clean(self):
        assert rules_of("""
            from repro.caching import LRUCache
            CACHE = LRUCache(maxsize=256)
        """) == []


class TestFloatCompareDET003:
    def test_float_literal_fires_warn(self):
        diags = lint_source("ok = t == 1.5\n")
        assert [d.rule for d in diags] == ["DET003"]
        assert diags[0].severity is Severity.WARN

    def test_timing_names_fire(self):
        assert "DET003" in rules_of("""
            same = record.t_fwd == other.t_fwd
        """)

    def test_zero_guard_is_clean(self):
        # Exact-degenerate-value guards (zero variance/span) are idiomatic.
        assert rules_of("""
            if span == 0.0:
                span = 1.0
        """) == []

    def test_int_compare_is_clean(self):
        assert rules_of("""
            done = count == 3
        """) == []


class TestWallClockDET005:
    def test_time_time_fires(self):
        assert "DET005" in rules_of("""
            import time
            start = time.time()
        """)

    def test_datetime_now_fires(self):
        assert "DET005" in rules_of("""
            from datetime import datetime
            stamp = datetime.now()
        """)

    def test_perf_counter_is_clean(self):
        assert rules_of("""
            import time
            start = time.perf_counter()
        """) == []


class TestLstsqRcondDET006:
    def test_missing_rcond_fires(self):
        assert "DET006" in rules_of("""
            import numpy as np
            coef, *_ = np.linalg.lstsq(X, y)
        """)

    def test_aliased_import_fires(self):
        assert "DET006" in rules_of("""
            from numpy.linalg import lstsq
            coef, *_ = lstsq(X, y)
        """)

    def test_explicit_rcond_keyword_is_clean(self):
        assert rules_of("""
            import numpy as np
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        """) == []

    def test_third_positional_argument_is_clean(self):
        assert rules_of("""
            import numpy as np
            coef, *_ = np.linalg.lstsq(X, y, None)
        """) == []

    def test_unrelated_lstsq_is_clean(self):
        assert rules_of("""
            import scipy.linalg as sla
            coef = sla.lstsq(X, y)
        """) == []

    def test_suppression_comment_works(self):
        assert rules_of("""
            import numpy as np
            c, *_ = np.linalg.lstsq(X, y)  # repro-lint: disable=DET006
        """) == []

    def test_repo_solver_paths_are_clean(self):
        # The one place the repo calls lstsq (regression.py) and the
        # audit's VIF computation must both pin rcond explicitly.
        diags, _ = lint_paths([
            REPO_SRC / "core" / "regression.py",
            REPO_SRC / "analysis" / "audit" / "rules.py",
        ])
        assert [d for d in diags if d.rule == "DET006"] == []


class TestSuppressionAndErrors:
    def test_trailing_comment_suppresses(self):
        assert rules_of("""
            import time
            start = time.time()  # repro-lint: disable=DET005
        """) == []

    def test_comment_with_other_rule_does_not_suppress(self):
        assert "DET005" in rules_of("""
            import time
            start = time.time()  # repro-lint: disable=DET002
        """)

    def test_syntax_error_reports_det000(self):
        assert rules_of("def broken(:\n") == ["DET000"]

    def test_missing_path_reports_det000(self, tmp_path):
        diags, n_files = lint_paths([tmp_path / "nope.py"])
        assert [d.rule for d in diags] == ["DET000"]
        assert n_files == 0


class TestRepositoryIsClean:
    def test_src_repro_has_no_error_diagnostics(self, repo_program):
        diags = lint_program(repo_program)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert repo_program.n_files > 50
        assert errors == [], "\n".join(d.render() for d in errors)

    def test_reintroducing_lru_cache_would_fail(self, tmp_path, repo_program):
        # The CI criterion: an unbounded cache anywhere under the linted
        # tree turns the build red.
        bad = tmp_path / "sneaky.py"
        bad.write_text(
            "from functools import lru_cache\n"
            "@lru_cache(maxsize=None)\n"
            "def profile(model):\n"
            "    return model\n"
        )
        tree = Program(repo_program.files + Program.load([tmp_path]).files)
        assert any(
            d.rule == "DET002" and "sneaky.py" in d.location
            for d in lint_program(tree)
        )


class TestLintCLI:
    def test_clean_tree_exits_zero(self, capsys):
        rc = main(["lint", str(REPO_SRC)])
        assert rc == 0
        assert "0 errors" in capsys.readouterr().out

    def test_src_repro_clean_in_every_domain(self, capsys):
        # DET, CON and PERF over one Program of the full tree.
        rc = main(["lint", "--domain", "all", str(REPO_SRC)])
        assert rc == 0
        assert "0 errors, 0 warnings" in capsys.readouterr().out

    def test_hazard_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import functools\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def f(x):\n"
            "    return x\n"
        )
        rc = main(["lint", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[DET002]" in out and "1 error" in out

    def test_quiet_prints_only_summary(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        rc = main(["lint", str(bad), "--quiet"])
        assert rc == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert "1 error" in lines[0]

    def test_json_schema_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time; t = time.time()\n")
        rc = main(["lint", str(bad), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["diagnostics", "summary"]
        diag = payload["diagnostics"][0]
        assert diag["rule"] == "DET005"
        assert diag["severity"] == "ERROR"
        assert diag["location"].endswith("bad.py:1")
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["unit"] == "file"


class TestCacheMigrations:
    """The two former lru_cache sites now use the observable bounded LRU."""

    def test_vit_profile_cache_is_bounded_and_observable(self):
        # ViT profiles live in the one graph record cache, like every
        # other zoo model's.
        from repro.hardware.roofline import GRAPH_RECORD_CACHE, zoo_profile

        before = GRAPH_RECORD_CACHE.stats()
        first = zoo_profile("vit_tiny_16", 64)
        again = zoo_profile("vit_tiny_16", 64)
        delta = GRAPH_RECORD_CACHE.stats() - before
        assert again is first
        assert delta.hits >= 1
        assert GRAPH_RECORD_CACHE.maxsize == 512

    def test_experiment_dataset_cache_returns_same_object(self):
        from repro.experiments import common

        first = common.gpu_inference_data()
        assert common.gpu_inference_data() is first
        assert common.DATASET_CACHE.maxsize == 8
        assert common.DATASET_CACHE.stats().hits >= 1


class TestStaleSuppressionSUP001:
    """Suppression comments that no longer suppress anything are WARNed
    about — tracked per domain by rule-id prefix (DET here)."""

    def test_stale_suppression_fires(self):
        diags = lint_source(
            "def harmless():\n"
            "    return 1  # repro-lint: disable=DET002\n"
        )
        assert [d.rule for d in diags] == ["SUP001"]
        assert diags[0].severity is Severity.WARN
        assert "DET002" in diags[0].message

    def test_used_suppression_is_not_stale(self):
        diags = lint_source(
            "import time\n"
            "t = time.time()  # repro-lint: disable=DET005\n"
        )
        assert diags == []

    def test_con_prefixed_comment_not_judged_by_det_domain(self):
        # CON suppressions belong to the concurrency analyzer; the
        # determinism linter must not call them stale.
        diags = lint_source(
            "def harmless():\n"
            "    return 1  # repro-lint: disable=CON002\n"
        )
        assert diags == []

    def test_docstring_mention_is_not_a_suppression(self):
        # Comments come from tokenize, so the literal text inside a
        # docstring neither suppresses nor counts as stale.
        diags = lint_source(
            '"""Docs quoting `# repro-lint: disable=DET002` syntax."""\n'
            "x = 1\n"
        )
        assert diags == []

    def test_sup001_is_itself_suppressible(self):
        diags = lint_source(
            "def harmless():\n"
            "    return 1  # repro-lint: disable=DET002,SUP001\n"
        )
        assert diags == []
