"""Shared fixtures: small, fast campaign datasets and common graphs."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.benchdata import (
    block_campaign,
    distributed_campaign,
    inference_campaign,
    training_campaign,
)
from repro.graph.builder import GraphBuilder
from repro.hardware.device import A100_80GB

#: A reduced sweep shared by unit tests — enough structure for fitting,
#: small enough to keep the suite fast.
SMALL_MODELS = ("alexnet", "resnet18", "resnet50", "mobilenet_v2", "vgg11")
SMALL_BATCHES = (1, 8, 64, 256)
SMALL_IMAGES = (64, 128, 224)


@pytest.fixture(scope="session")
def small_inference_data():
    return inference_campaign(
        models=SMALL_MODELS,
        device=A100_80GB,
        batch_sizes=SMALL_BATCHES,
        image_sizes=SMALL_IMAGES,
        seed=21,
    )


@pytest.fixture(scope="session")
def small_training_data():
    return training_campaign(
        models=SMALL_MODELS,
        device=A100_80GB,
        batch_sizes=SMALL_BATCHES,
        image_sizes=SMALL_IMAGES,
        seed=22,
    )


@pytest.fixture(scope="session")
def small_distributed_data():
    return distributed_campaign(
        models=SMALL_MODELS,
        node_counts=(1, 2, 4),
        batch_sizes=(16, 64),
        image_sizes=(64, 128),
        seed=23,
    )


@pytest.fixture(scope="session")
def small_block_data():
    return block_campaign(
        batch_sizes=SMALL_BATCHES,
        image_sizes=(96, 160),
        seed=24,
    )


#: Networks the learned-predictor suite fixtures fit on.  Three models
#: keep the session-scoped fits fast while leaving leave-one-out folds
#: meaningful; the batch grid is wide enough that PerfSeer's bucketed
#: design stays overdetermined.
SUITE_MODELS = ("alexnet", "mobilenet_v2", "resnet18")

#: Reduced learned-model hyperparameters shared by every suite fixture
#: (mirrors the leaderboard's ``fast`` profile).
SUITE_MLP_KWARGS = dict(hidden=8, blocks=1, epochs=120, patience=30)


@pytest.fixture(scope="session")
def suite_inference_data():
    """Campaign the fitted-predictor fixtures below were trained on.

    Contract (see docs/static-analysis.md): session-scoped — tests must
    treat it and every fitted predictor derived from it as immutable.
    """
    return inference_campaign(
        models=SUITE_MODELS,
        device=A100_80GB,
        batch_sizes=(1, 8, 64, 256),
        image_sizes=(64, 128),
        seed=31,
    )


@pytest.fixture(scope="session")
def suite_training_data():
    return training_campaign(
        models=SUITE_MODELS,
        device=A100_80GB,
        batch_sizes=(1, 8, 64, 256),
        image_sizes=(64, 128),
        seed=32,
    )


@pytest.fixture(scope="session")
def fitted_resperfnet(suite_inference_data):
    from repro.baselines import ResPerfNet

    model = ResPerfNet("fwd", seed=7, **SUITE_MLP_KWARGS)
    model.fit(suite_inference_data)
    return model


@pytest.fixture(scope="session")
def fitted_perfseer(suite_inference_data):
    from repro.baselines import PerfSeer

    model = PerfSeer("fwd", seed=7)
    model.fit(suite_inference_data)
    return model


@pytest.fixture(scope="session")
def fitted_prenet(suite_inference_data):
    from repro.baselines import PreNeT

    model = PreNeT("fwd", seed=7, **SUITE_MLP_KWARGS)
    model.fit(suite_inference_data)
    return model


#: The package source the repo-clean lint gates check.
REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(scope="session")
def repo_program():
    """``src/repro`` read and parsed once for every lint domain's
    repo-clean gate; the domains only read it."""
    from repro.lint import Program

    return Program.load([REPO_SRC])


@pytest.fixture
def tiny_graph():
    """A minimal conv→bn→relu→pool→fc graph for layer-level tests."""
    b = GraphBuilder("tiny")
    x = b.input(3, 16, 16)
    x = b.conv_bn_act(x, 8, kernel_size=3, padding=1)
    x = b.maxpool(x, 2, stride=2)
    x = b.classifier(x, 10)
    return b.finish()
