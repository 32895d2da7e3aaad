"""The experiment catalogue: one list of paper artefacts for the CLI and
the report, readable without importing any experiment module."""

import subprocess
import sys

from repro.cli import build_parser
from repro.experiments import EXPERIMENTS


def _experiment_choices() -> list[str]:
    parser = build_parser()
    commands = next(
        a for a in parser._actions if a.dest == "command"
    ).choices
    (id_action,) = (
        a for a in commands["experiment"]._actions if a.dest == "id"
    )
    return list(id_action.choices)


def test_cli_choices_are_the_catalogue_ids():
    ids = [e.id for e in EXPERIMENTS]
    assert len(set(ids)) == len(ids) == 11
    assert sorted(_experiment_choices()) == sorted(ids)


def test_every_entry_resolves_to_a_callable():
    for experiment in EXPERIMENTS:
        assert callable(experiment.runner()), experiment.target


def test_importing_the_cli_loads_no_experiment_module():
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith('repro.experiments.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
