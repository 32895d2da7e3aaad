"""Golden snapshot of a fused campaign and of the Table 2 block campaign.

``image_axis_golden.json`` pins raw zoo graphs.  This file pins the two
other things a campaign measures: graphs rewritten by the inference fusion
pipeline (``transform="inference"``) and the nine Table 2 blocks extracted
from their parent models.  Each campaign runs cold into a record store;
for every graph (``"<name>@<image>"``) the snapshot holds

* ``records_sha256`` — a sha256 of that graph's lines in ``records.jsonl``;
* ``verdicts`` — the rendered diagnostics the manifest persisted (the fused
  campaign's include the IR008 transform-preservation check);
* ``verdicts_edge256`` — the rendered verdicts of the same sweep verified
  with IR009 at edge batch 256, where the edge-memory advisory fires.

How these graphs are built, costed or verified may change; none of these
bytes may.

To regenerate after an *intentional* architecture or cost-model change::

    PYTHONPATH=src python tests/test_transform_blocks_golden.py > tests/data/transform_blocks_golden.json
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.benchdata import CampaignSpec, CampaignStore, run_campaign
from repro.benchdata.engine import campaign_verdicts, enumerate_points
from repro.diagnostics import Diagnostic
from repro.hardware.device import A100_80GB

GOLDEN_PATH = Path(__file__).parent / "data" / "transform_blocks_golden.json"

SPECS = {
    "fused": CampaignSpec(
        scenario="inference",
        models=("resnet18", "mobilenet_v2", "densenet121"),
        device=A100_80GB,
        batch_sizes=(1, 32),
        image_sizes=(64, 224),
        seed=11,
        transform="inference",
    ),
    # No models: every Table 2 block.
    "blocks": CampaignSpec(
        scenario="blocks",
        models=(),
        device=A100_80GB,
        batch_sizes=(1, 32),
        image_sizes=(128, 224),
        seed=11,
    ),
}


def _graph_key(line: str) -> str:
    _, name, image, *_ = json.loads(line)["key"].split(":")
    return f"{name}@{image}"


def campaign_rows(spec: CampaignSpec, directory: Path) -> dict:
    with CampaignStore.open(directory, spec) as store:
        run_campaign(spec, workers=1, store=store, verify="warn")
    lines: dict[str, list[str]] = {}
    for line in (directory / "records.jsonl").read_text().splitlines():
        lines.setdefault(_graph_key(line), []).append(line)
    manifest = json.loads((directory / "manifest.json").read_text())
    persisted = manifest["verdicts"]["graphs"]
    edge256 = dataclasses.replace(spec, batch_sizes=(256,))
    verdicts256 = campaign_verdicts(edge256, enumerate_points(edge256))
    assert list(persisted) == list(lines) == list(verdicts256)
    return {
        key: {
            "records_sha256": hashlib.sha256(
                "\n".join(lines[key]).encode()
            ).hexdigest(),
            "verdicts": [
                Diagnostic.from_dict(d).render() for d in persisted[key]
            ],
            "verdicts_edge256": [d.render() for d in verdicts256[key]],
        }
        for key in persisted
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_both_campaigns(golden):
    assert sorted(golden) == sorted(SPECS)
    assert len(golden["fused"]) == 3 * 2
    assert len(golden["blocks"]) == 9 * 2


@pytest.mark.parametrize("name", sorted(SPECS))
def test_campaign_matches_golden(golden, monkeypatch, tmp_path, name):
    """From cold caches, every graph's record lines and verdicts are the
    pinned bytes."""
    from repro.benchdata import engine
    from repro.caching import LRUCache
    from repro.hardware import roofline

    monkeypatch.setattr(roofline, "GRAPH_RECORD_CACHE", LRUCache(maxsize=512))
    monkeypatch.setattr(engine, "VERIFY_CACHE", LRUCache(maxsize=512))
    assert campaign_rows(SPECS[name], tmp_path / name) == golden[name], (
        f"{name}: a record or verdict moved; regenerate the snapshot only "
        "for an intentional change"
    )


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    with tempfile.TemporaryDirectory() as tmp:
        print(
            json.dumps(
                {
                    name: campaign_rows(spec, Path(tmp) / name)
                    for name, spec in SPECS.items()
                },
                indent=2,
                sort_keys=True,
            )
        )
