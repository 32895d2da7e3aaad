"""Golden snapshot of every zoo model over the campaign image axis.

``zoo_golden.json`` pins each model at one image size.  This file pins
every registry model at every campaign image size (32, 64, …, 224) at or
above its ``min_image_size``: the ``CostSummary``, a sha256 of the
``CostProfile`` arrays and labels, and the rendered ``verify_graph``
diagnostics — once with the defaults, and once the way a training campaign
verifies (IR007 off, IR009 at batch 256, where the edge-memory advisory
fires for the larger models and images).  Image-dependent costs (ViT's
position embeddings, ceil-mode pooling at small sizes, the edge-memory
advisory) all land in it, so a change to how shapes or costs are derived
per image must leave every byte unchanged.

Each model is checked twice: graph by graph at each image size (the
single-image path serve, DIPPM and the figures take), and from one
topology over the whole axis (the path a campaign takes).

To regenerate after an *intentional* architecture or cost-model change::

    PYTHONPATH=src python tests/test_image_axis_golden.py > tests/data/image_axis_golden.json
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.verify import verify_graph
from repro.graph.metrics import summarize_costs
from repro.hardware.roofline import (
    CostProfile,
    GraphRecord,
    build_topology,
    profile_graph,
)
from repro.zoo import available_models, build_model, get_entry

GOLDEN_PATH = Path(__file__).parent / "data" / "image_axis_golden.json"

#: The paper's campaign image sizes.
IMAGES = (32, 64, 96, 128, 160, 192, 224)


def images_of(name: str) -> tuple[int, ...]:
    return tuple(i for i in IMAGES if i >= get_entry(name).min_image_size)


def profile_digest(profile: CostProfile) -> str:
    """sha256 over every array (dtype and bytes) and label of a profile."""
    h = hashlib.sha256()
    for field in dataclasses.fields(profile):
        value = getattr(profile, field.name)
        h.update(field.name.encode())
        if isinstance(value, np.ndarray):
            h.update(value.dtype.str.encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, tuple):
            h.update("\x1f".join(value).encode())
        else:
            h.update(str(value).encode())
        h.update(b"\x00")
    return h.hexdigest()


#: ``verify_graph`` keyword sets of the two pinned verdicts.
VERDICTS = {
    "diagnostics": {},
    "training_edge256": {"ignore": ("IR007",), "edge_batch": 256},
}


def model_rows(name: str) -> dict:
    rows = {}
    for image in images_of(name):
        graph = build_model(name, image)
        rows[str(image)] = {
            "summary": dataclasses.asdict(summarize_costs(graph)),
            "profile_sha256": profile_digest(profile_graph(graph)),
            **{
                label: [d.render() for d in verify_graph(graph, **kwargs)]
                for label, kwargs in VERDICTS.items()
            },
        }
    return rows


def topology_rows(name: str) -> dict:
    """The same rows from one topology: records from one cost walk over
    the image axis, verdicts from one verification of it."""
    images = images_of(name)
    topology = build_topology(name, images)
    records = [GraphRecord.of(p) for p in profile_graph(topology)]
    verdicts = {
        label: verify_graph(
            topology,
            summary=tuple(r.summary for r in records),
            profile=tuple(r.profile for r in records),
            **kwargs,
        )
        for label, kwargs in VERDICTS.items()
    }
    return {
        str(image): {
            "summary": dataclasses.asdict(record.summary),
            "profile_sha256": profile_digest(record.profile),
            **{
                label: [
                    d.render() for d in found
                    if d.location.split(":", 1)[0] == f"{name}_{image}"
                ]
                for label, found in verdicts.items()
            },
        }
        for image, record in zip(images, records)
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_registry_model_has_a_golden_entry(golden):
    assert sorted(golden) == available_models()


@pytest.mark.parametrize("name", available_models())
def test_model_matches_golden_at_every_image(golden, name):
    assert model_rows(name) == golden[name], (
        f"{name}: a summary, profile or verdict moved at some image size; "
        "regenerate the snapshot only for an intentional change"
    )


@pytest.mark.parametrize("name", available_models())
def test_topology_matches_golden_at_every_image(golden, name):
    assert topology_rows(name) == golden[name]


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    print(
        json.dumps(
            {name: model_rows(name) for name in available_models()},
            indent=2,
            sort_keys=True,
        )
    )
