"""Golden snapshot of the non-default execution backends.

The zoo, campaign and serve goldens pin the default roofline backend only.
This file pins the other three — ``edge``, ``fp16`` and ``bf16`` — byte for
byte: the JSONL record stream a small inference and training campaign
writes to its store under each backend (measured points, and the
``status: "oom"`` / ``"budget"`` markers of gated ones), plus the
``backends`` rows of ``repro devices --format json``.  A refactor of the
backend layer must leave every byte of it unchanged.

To regenerate after an *intentional* change to a backend::

    PYTHONPATH=src python tests/test_backend_golden.py > tests/data/backend_golden.json
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.benchdata.engine import CampaignSpec, run_campaign
from repro.benchdata.store import CampaignStore
from repro.cli import main
from repro.hardware.backend import BACKEND_REGISTRY

GOLDEN_PATH = Path(__file__).parent / "data" / "backend_golden.json"

BACKENDS = ("edge", "fp16", "bf16")
SCENARIOS = ("inference", "training")


def campaign_lines(backend: str, scenario: str) -> list[str]:
    """The store's ``records.jsonl`` lines of one small gated campaign."""
    spec = CampaignSpec(
        scenario=scenario,
        models=("alexnet", "vgg16"),
        device=BACKEND_REGISTRY[backend].default_device,
        batch_sizes=(1, 64, 4096, 16384),
        image_sizes=(64, 224),
        seed=11,
        max_seconds=2.0,
        backend=backend,
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = CampaignStore.open(Path(tmp) / "store", spec)
        run_campaign(spec, store=store, verify="off")
        store.close()
        return store.records_path.read_text().splitlines()


def device_backend_rows() -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["devices", "--format", "json"]) == 0
    return json.loads(out.getvalue())["backends"]


def golden_payload() -> dict:
    return {
        "campaigns": {
            f"{b}/{s}": campaign_lines(b, s)
            for b in BACKENDS
            for s in SCENARIOS
        },
        "devices_backends": device_backend_rows(),
    }


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_campaign_record_stream_matches_golden(golden, backend, scenario):
    expected = golden["campaigns"][f"{backend}/{scenario}"]
    assert _dump(campaign_lines(backend, scenario)) == _dump(expected), (
        f"{backend}/{scenario}: record stream moved; regenerate "
        "tests/data/backend_golden.json only for an intentional change"
    )


def test_golden_covers_oom_markers(golden):
    statuses = {
        json.loads(line).get("status", "")
        for lines in golden["campaigns"].values()
        for line in lines
    }
    assert {"", "oom", "budget"} <= statuses
    for backend in BACKENDS:
        assert any(
            '"status": "oom"' in line
            for scenario in SCENARIOS
            for line in golden["campaigns"][f"{backend}/{scenario}"]
        ), backend


def test_devices_backend_rows_match_golden(golden):
    assert _dump(device_backend_rows()) == _dump(golden["devices_backends"])


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    print(_dump(golden_payload()), end="")
