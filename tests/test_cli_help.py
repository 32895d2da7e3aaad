"""The CLI parser surface: choice lists and help text.

The ``--device``/``--backend`` choices and the leaderboard defaults are
read from the registries that define them, so relocating a registry
cannot let the parser drift from it.  Every ``--help`` text is pinned
byte for byte, at a fixed 80-column width.

To regenerate the help golden after an *intentional* change::

    PYTHONPATH=src python tests/test_cli_help.py > tests/data/cli_help_golden.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.baselines import eval as leaderboard
from repro.cli import build_parser
from repro.hardware import BACKEND_REGISTRY, DEVICE_PRESETS

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_help_golden.json"


def _subcommands(parser) -> dict:
    return next(a for a in parser._actions if a.dest == "command").choices


def _action(subparser, dest: str):
    (action,) = (a for a in subparser._actions if a.dest == dest)
    return action


def help_texts() -> dict[str, str]:
    """``repro --help`` and every ``repro <command> --help``, 80 columns."""
    texts = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        parser = build_parser()
        for argv in ([], *([name] for name in _subcommands(parser))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    pytest.raises(SystemExit) as exit_info:
                parser.parse_args([*argv, "--help"])
            assert exit_info.value.code == 0
            texts[" ".join(["repro", *argv])] = out.getvalue()
    return texts


@pytest.mark.parametrize("command", ["campaign", "trace", "fit", "predict"])
def test_device_and_backend_choices_are_the_registries(command):
    sub = _subcommands(build_parser())[command]
    assert list(_action(sub, "backend").choices) == sorted(BACKEND_REGISTRY)
    if command in ("campaign", "trace"):
        assert list(_action(sub, "device").choices) == sorted(DEVICE_PRESETS)


def test_leaderboard_defaults_are_the_suite():
    sub = _subcommands(build_parser())["leaderboard"]
    assert _action(sub, "scenario").default == [
        s.name for s in leaderboard.SCENARIOS
    ]
    assert _action(sub, "predictors").default == [
        p.name for p in leaderboard.PREDICTORS
    ]


@pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="Python 3.13 argparse formats option metavars differently",
)
def test_help_text_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    texts = help_texts()
    assert list(texts) == list(golden)
    for command, text in texts.items():
        assert text == golden[command], command


if __name__ == "__main__":
    print(json.dumps(help_texts(), indent=1))
