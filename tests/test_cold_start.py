"""Cold start pays only for the command it runs.

``import repro.cli``, ``repro --help`` and ``repro lint`` load no numpy
(each checked in a fresh interpreter through ``tests/numpy_probe.py``),
and the packages whose names resolve lazily (PEP 562 name tables) still
hand out exactly the objects their defining modules hold.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "tests" / "numpy_probe.py"

#: Packages whose ``__init__`` is a name table resolved by ``__getattr__``.
NAME_TABLE_PACKAGES = (
    "repro", "repro.analysis", "repro.baselines", "repro.hardware",
)


def _probe(*argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(PROBE), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    result = json.loads(out.stderr.strip().splitlines()[-1])
    assert out.returncode == (1 if result["numpy"] else 0)
    return result


def test_importing_the_cli_loads_no_numpy():
    assert _probe() == {"status": 0, "numpy": False}


def test_help_loads_no_numpy():
    assert _probe("--help") == {"status": 0, "numpy": False}


def test_lint_all_domains_loads_no_numpy(tmp_path):
    source = tmp_path / "clean.py"
    source.write_text("def double(x):\n    return 2 * x\n")
    result = _probe("lint", "--domain", "all", str(source))
    assert result == {"status": 0, "numpy": False}


def test_a_numpy_command_is_seen_by_the_probe():
    assert _probe("models") == {"status": 0, "numpy": True}


@pytest.mark.parametrize("package", NAME_TABLE_PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    table = pkg._EXPORTS
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if name in table:
            module = importlib.import_module(f"{package}.{table[name]}")
            assert getattr(module, name) is value, name
        if inspect.isclass(value) or inspect.isfunction(value):
            defining = sys.modules[value.__module__]
            assert getattr(defining, value.__name__) is value, name


@pytest.mark.parametrize("package", NAME_TABLE_PACKAGES)
def test_dir_lists_the_exported_names(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", NAME_TABLE_PACKAGES)
def test_an_unknown_name_raises_attribute_error_naming_the_package(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=repr(package)):
        pkg.no_such_name  # noqa: B018


def test_learned_kinds_are_their_classes_kinds():
    import repro.baselines as baselines

    for kind in baselines.LEARNED_KINDS:
        assert getattr(baselines, baselines._LEARNED[kind]).kind == kind
