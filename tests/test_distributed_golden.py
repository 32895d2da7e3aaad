"""Golden snapshot of the distributed scenario.

The backend golden pins the single-device campaigns; nothing pinned the
distributed ones.  This file pins, byte for byte:

* the store's ``records.jsonl`` lines of a small distributed campaign
  (three models × two batches × 1/2/4 nodes × two reps), and
* ``DistributedTrainer.measure_step`` phase times on a mixed cluster
  (``ClusterSpec(node_devices=…)`` with A100 and Jetson nodes), whose
  backward time is the per-layer maximum over the node types.

To regenerate after an *intentional* change to the distributed model::

    PYTHONPATH=src python tests/test_distributed_golden.py > tests/data/distributed_golden.json
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.benchdata.engine import CampaignSpec, run_campaign
from repro.benchdata.store import CampaignStore
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer
from repro.hardware.device import A100_80GB, JETSON_ORIN
from repro.hardware.roofline import profile_graph
from repro.zoo import build_model

GOLDEN_PATH = Path(__file__).parent / "data" / "distributed_golden.json"

SPEC = CampaignSpec(
    scenario="distributed",
    models=("alexnet", "resnet18", "mobilenet_v2"),
    device=A100_80GB,
    batch_sizes=(8, 64),
    image_sizes=(128,),
    seed=13,
    reps=2,
    node_counts=(1, 2, 4),
)

#: Per-node device lists of the mixed clusters.
MIXED = {
    "a100+orin": (A100_80GB, JETSON_ORIN),
    "a100+orin+a100+orin": (A100_80GB, JETSON_ORIN, A100_80GB, JETSON_ORIN),
}


def campaign_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        store = CampaignStore.open(Path(tmp) / "store", SPEC)
        run_campaign(SPEC, store=store, verify="off")
        store.close()
        return store.records_path.read_text().splitlines()


def mixed_rows() -> dict:
    rows = {}
    for model in ("resnet18", "mobilenet_v2"):
        profile = profile_graph(build_model(model, 128))
        for label, devices in MIXED.items():
            trainer = DistributedTrainer(
                ClusterSpec(
                    nodes=len(devices), gpus_per_node=4, device=A100_80GB,
                    node_devices=devices,
                ),
                seed=13,
            )
            for batch in (8, 32):
                for rep in (0, 1):
                    phases = trainer.measure_step(
                        profile, batch, rep=rep, enforce_memory=False
                    )
                    rows[f"{model}/{label}/{batch}/{rep}"] = [
                        phases.forward, phases.backward, phases.grad_update
                    ]
    return rows


def golden_payload() -> dict:
    return {"campaign": campaign_lines(), "mixed_cluster": mixed_rows()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_distributed_campaign_records_match_golden(golden):
    assert campaign_lines() == golden["campaign"]


def test_mixed_cluster_steps_match_golden(golden):
    assert mixed_rows() == golden["mixed_cluster"]


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    print(json.dumps(golden_payload(), indent=2, sort_keys=True))
