"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures, prints the
same rows/series the paper reports, and asserts the qualitative shape
criteria from DESIGN.md §4.  ``pytest benchmarks/ --benchmark-only`` runs
everything; individual experiments can be run directly via
``repro experiment <id>``.

``--campaign-workers N`` fans campaign generation out over N worker
processes (via ``repro.benchdata.engine``).  Campaign records are
byte-identical to serial runs, so every benchmark assertion is unaffected —
only wall-clock time changes.
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--campaign-workers",
        type=int,
        default=None,
        help="worker processes for campaign generation (default: serial)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment: regenerates a paper table or figure"
    )
    workers = config.getoption("--campaign-workers")
    if workers is not None:
        # repro.experiments.common reads this at campaign-build time.
        os.environ["REPRO_CAMPAIGN_WORKERS"] = str(workers)


@pytest.fixture(autouse=True)
def _print_header(request, capsys):
    yield
