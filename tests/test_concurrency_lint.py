"""Concurrency-hazard analyzer: every CON rule firing, staying silent,
and suppressible; call-graph/entry-lock behaviors; the CLI contract; and
the repository gate (`src/repro` must be clean)."""

import json
import textwrap

import pytest

from repro.analysis.concurrency import (
    CONCURRENCY_RULES,
    analyze_paths,
    analyze_program,
    analyze_source,
    analyze_sources,
)
from repro.cli import main
from repro.diagnostics import Severity, has_errors
from tests.conftest import REPO_SRC


def rules_of(source: str) -> list[str]:
    return [d.rule for d in analyze_source(textwrap.dedent(source))]


def diags_of(source: str):
    return analyze_source(textwrap.dedent(source))


class TestParseErrorsCON000:
    def test_syntax_error_fires(self):
        assert rules_of("def broken(:\n    pass\n") == ["CON000"]

    def test_valid_module_is_silent(self):
        assert rules_of("x = 1\n") == []

    def test_missing_path_reported_not_raised(self, tmp_path):
        diags, n_files = analyze_paths([tmp_path / "absent.py"])
        assert [d.rule for d in diags] == ["CON000"]
        assert n_files == 0


class TestTornAttributeCON002:
    COUNTER = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self._n = 0

            def inc(self):
                with self._lock:
                    self._n += 1

            def bad_inc(self):
                self._n += 1
    """

    def test_unguarded_mutation_is_error(self):
        diags = diags_of(self.COUNTER)
        assert [d.rule for d in diags] == ["CON002"]
        assert diags[0].severity is Severity.ERROR
        assert "bad_inc" not in diags[0].message  # located, not named
        assert ":14" in diags[0].location

    def test_unguarded_read_is_warning(self):
        diags = diags_of(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def inc(self):
                    with self._lock:
                        self._n += 1

                def peek(self):
                    return self._n
            """
        )
        assert [d.rule for d in diags] == ["CON002"]
        assert diags[0].severity is Severity.WARN

    def test_consistent_discipline_is_silent(self):
        assert rules_of(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def inc(self):
                    with self._lock:
                        self._n += 1

                def peek(self):
                    with self._lock:
                        return self._n
            """
        ) == []

    def test_undisciplined_class_is_silent(self):
        # No lock anywhere: there is no discipline to contradict.  (This
        # is the documented CON002 limit — see docs/static-analysis.md.)
        assert rules_of(
            """
            class Tracer:
                def __init__(self):
                    self._counters = {}

                def count(self, name, value):
                    self._counters[name] = (
                        self._counters.get(name, 0.0) + value
                    )
            """
        ) == []

    def test_entry_lock_propagation_guards_helpers(self):
        # A helper only ever called under the lock inherits it — the
        # `_locked`-suffix convention needs no annotation.
        assert rules_of(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key, value):
                    with self._lock:
                        self._add_locked(key, value)

                def _add_locked(self, key, value):
                    self._items[key] = value
            """
        ) == []

    def test_entry_lock_intersection_catches_unlocked_caller(self):
        # `_store_locked` is also reachable from `sneak`, which holds no
        # lock — the call-site intersection strips the helper's guard and
        # its write contradicts the guarded write in `add`.
        assert "CON002" in rules_of(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def add(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def sneak(self, key, value):
                    self._store_locked(key, value)

                def locked_store(self, key, value):
                    with self._lock:
                        self._store_locked(key, value)

                def _store_locked(self, key, value):
                    self._items[key] = value
            """
        )

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def inc(self):
                    with self._lock:
                        self._n += 1

                def bad_inc(self):
                    self._n += 1  # repro-lint: disable=CON002
            """
        ) == []


class TestCheckThenActCON005:
    RACY = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}

            def put_if_absent(self, key, value):
                with self._lock:
                    present = key in self._data
                if present:
                    return
                with self._lock:
                    self._data[key] = value
    """

    def test_separate_acquisitions_fire(self):
        diags = diags_of(self.RACY)
        assert [d.rule for d in diags] == ["CON005"]
        assert diags[0].severity is Severity.WARN

    def test_single_critical_section_is_silent(self):
        assert rules_of(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._data = {}

                def put_if_absent(self, key, value):
                    with self._lock:
                        if key not in self._data:
                            self._data[key] = value
            """
        ) == []

    def test_suppression_comment_works(self):
        source = self.RACY.replace(
            "self._data[key] = value",
            "self._data[key] = value  # repro-lint: disable=CON005",
        )
        assert rules_of(source) == []


class TestHostileApisCON006:
    def test_warn_from_handler_method_fires(self):
        diags = diags_of(
            """
            import warnings
            from http.server import BaseHTTPRequestHandler

            class Handler(BaseHTTPRequestHandler):
                def do_GET(self):
                    warnings.warn("racy")
            """
        )
        assert [d.rule for d in diags] == ["CON006"]
        assert "warnings" in diags[0].message

    def test_global_rng_from_thread_target_fires(self):
        assert "CON006" in rules_of(
            """
            import random
            import threading

            def worker():
                return random.random()

            def spawn():
                threading.Thread(target=worker).start()
            """
        )

    def test_environ_mutation_fires(self):
        assert "CON006" in rules_of(
            """
            import os
            import threading

            def worker():
                os.environ["MODE"] = "fast"

            def spawn():
                threading.Thread(target=worker).start()
            """
        )

    def test_unreachable_warn_is_silent(self):
        assert rules_of(
            """
            import warnings

            def offline():
                warnings.warn("campaign-side, no threads involved")
            """
        ) == []

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            import warnings
            from http.server import BaseHTTPRequestHandler

            class Handler(BaseHTTPRequestHandler):
                def do_GET(self):
                    warnings.warn("ok")  # repro-lint: disable=CON006
            """
        ) == []


class TestPoolSubmissions:
    """Thread-pool submissions are thread roots; process-pool ones are
    not (workers get their own interpreter) and add no call edge."""

    POOLED = """
        import warnings
        from concurrent.futures import {pool}

        def task(x):
            warnings.warn("per-task")
            return x

        def go():
            with {pool}() as pool:
                pool.map(task, [1, 2, 3])
        """

    def test_thread_pool_task_is_thread_reachable(self):
        source = self.POOLED.format(pool="ThreadPoolExecutor")
        assert rules_of(source) == ["CON006"]

    def test_process_pool_task_is_not(self):
        source = self.POOLED.format(pool="ProcessPoolExecutor")
        assert rules_of(source) == []


class TestBlockingUnderLockCON008:
    def test_sleep_under_lock_fires(self):
        diags = diags_of(
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        time.sleep(0.1)
            """
        )
        assert [d.rule for d in diags] == ["CON008"]
        assert diags[0].severity is Severity.WARN

    def test_entry_lock_propagates_into_helper(self):
        # The blocking call sits in a helper that never mentions the
        # lock — only the call-site intersection knows it is held.
        diags = diags_of(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()

                def load(self, path):
                    with self._lock:
                        return self._fill(path)

                def _fill(self, path):
                    return path.read_text()
            """
        )
        assert [d.rule for d in diags] == ["CON008"]
        assert "read_text" in diags[0].message

    def test_io_outside_lock_is_silent(self):
        assert rules_of(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._doc = None

                def load(self, path):
                    text = path.read_text()
                    with self._lock:
                        self._doc = text
            """
        ) == []

    def test_suppression_comment_works(self):
        assert rules_of(
            """
            import threading
            import time

            class Slow:
                def __init__(self):
                    self._lock = threading.Lock()

                def nap(self):
                    with self._lock:
                        time.sleep(0.1)  # repro-lint: disable=CON008
            """
        ) == []


class TestCrossModuleAnalysis:
    def test_thread_root_in_one_module_reaches_another(self):
        diags = analyze_sources(
            [
                (
                    "state.py",
                    textwrap.dedent(
                        """
                        import warnings

                        def poke():
                            warnings.warn("from another module's thread")
                        """
                    ),
                ),
                (
                    "spawn.py",
                    textwrap.dedent(
                        """
                        import threading

                        from state import poke

                        def go():
                            threading.Thread(target=poke).start()
                        """
                    ),
                ),
            ]
        )
        assert [d.rule for d in diags] == ["CON006"]
        assert "state.py" in diags[0].location


class TestStaleSuppressions:
    def test_stale_con_suppression_reported(self):
        diags = diags_of(
            """
            def harmless():
                return 1  # repro-lint: disable=CON002
            """
        )
        assert [d.rule for d in diags] == ["SUP001"]
        assert diags[0].severity is Severity.WARN

    def test_det_suppressions_not_judged_here(self):
        # DET-prefixed comments belong to the determinism linter; the
        # concurrency analyzer must not call them stale.
        assert rules_of(
            """
            def harmless():
                return 1  # repro-lint: disable=DET005
            """
        ) == []


class TestRuleCatalogue:
    def test_rules_plus_parse_registered(self):
        ids = [r.rule for r in CONCURRENCY_RULES]
        assert ids == ["CON000", "CON002", "CON005", "CON006", "CON008"]

    def test_severities_match_docs(self):
        by_id = {r.rule: r.severity for r in CONCURRENCY_RULES}
        assert by_id["CON005"] is Severity.WARN
        assert by_id["CON008"] is Severity.WARN
        assert by_id["CON006"] is Severity.ERROR


class TestRepositoryIsClean:
    def test_src_repro_gates_clean(self, repo_program):
        diags = analyze_program(repo_program)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors == [], "\n".join(d.render() for d in errors)
        assert repo_program.n_files > 50

    def test_no_stale_suppressions_either_domain(self, repo_program):
        from repro.lint import lint_program

        con_diags = analyze_program(repo_program)
        det_diags = lint_program(repo_program)
        stale = [
            d for d in [*con_diags, *det_diags] if d.rule == "SUP001"
        ]
        assert stale == [], "\n".join(d.render() for d in stale)


class TestConcurrencyCLI:
    def test_clean_repo_exits_zero(self, capsys):
        rc = main(["lint", "--domain", "concurrency", str(REPO_SRC)])
        assert rc == 0
        assert "0 errors" in capsys.readouterr().out

    def test_errors_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(
            textwrap.dedent(
                """
                import threading
                import warnings

                def worker():
                    warnings.warn("racy")

                def spawn():
                    threading.Thread(target=worker).start()
                """
            )
        )
        rc = main(["lint", "--domain", "concurrency", str(bad)])
        assert rc == 1
        assert "CON006" in capsys.readouterr().out

    def test_ignore_flag_silences_rule(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text(
            textwrap.dedent(
                """
                import threading
                import warnings

                def worker():
                    warnings.warn("racy")

                def spawn():
                    threading.Thread(target=worker).start()
                """
            )
        )
        # Paths go before --ignore: nargs="*" flags swallow trailing
        # positionals (same convention the DET006 CI step uses).
        rc = main(
            ["lint", "--domain", "concurrency", str(bad),
             "--ignore", "CON006"]
        )
        assert rc == 0
        assert "1 file" in capsys.readouterr().out

    def test_quiet_prints_single_line(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import threading\n_LOCK = threading.Lock()\n")
        rc = main(
            ["lint", "--domain", "concurrency", "--quiet", str(clean)]
        )
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.splitlines() == ["0 errors, 0 warnings across 1 file"]

    def test_json_schema_matches_lint(self, tmp_path, capsys):
        bad = tmp_path / "racy.py"
        bad.write_text("import threading\n_LOCK = threading.Lock()\n")
        rc = main(
            ["lint", "--domain", "concurrency", "--format", "json",
             str(bad)]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["diagnostics", "summary"]
        assert payload["summary"]["unit"] == "file"

    def test_domain_all_runs_both_families(self, tmp_path, capsys):
        bad = tmp_path / "both.py"
        bad.write_text(
            textwrap.dedent(
                """
                import threading
                import time
                import warnings

                def worker():
                    warnings.warn(f"started at {time.time()}")

                def spawn():
                    threading.Thread(target=worker).start()
                """
            )
        )
        rc = main(["lint", "--domain", "all", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DET005" in out and "CON006" in out

    def test_unknown_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--domain", "bogus"])
        assert exc.value.code == 2
