"""Registry of model builders.

Models register themselves via :func:`register_model`; consumers call
:func:`build_model`, which validates the requested image size against the
architecture's minimum (stride pyramids eventually shrink a feature map to
nothing) — mirroring the paper's campaign, which only runs configurations
the architecture and device memory allow.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Callable

from repro.graph.graph import ComputeGraph

Builder = Callable[[int, int], ComputeGraph]


@dataclass(frozen=True)
class ModelEntry:
    """Registry record for one architecture."""

    name: str
    builder: Builder
    #: Smallest square image the stride pyramid supports.
    min_image_size: int
    #: Family label used in reports (e.g. "resnet", "mobile").
    family: str
    #: Short display name used in the paper's tables.
    display: str


_REGISTRY: dict[str, ModelEntry] = {}

#: Modules that register models on import.
_ZOO_MODULES = (
    "repro.zoo.alexnet",
    "repro.zoo.vgg",
    "repro.zoo.resnet",
    "repro.zoo.squeezenet",
    "repro.zoo.mobilenet_v2",
    "repro.zoo.mobilenet_v3",
    "repro.zoo.efficientnet",
    "repro.zoo.regnet",
    "repro.zoo.inception",
    "repro.zoo.densenet",
    "repro.zoo.vit",
)


def register_model(
    name: str,
    builder: Builder,
    min_image_size: int = 32,
    family: str = "generic",
    display: str | None = None,
) -> None:
    if name in _REGISTRY:
        raise ValueError(f"model {name!r} already registered")
    _REGISTRY[name] = ModelEntry(
        name=name,
        builder=builder,
        min_image_size=min_image_size,
        family=family,
        display=display or name,
    )


# Imports the zoo once; later register_model calls land in _REGISTRY.  No
# arguments means one cache entry: nothing to bound or count (DET002).
@functools.cache  # repro-lint: disable=DET002
def _ensure_loaded() -> None:
    for module in _ZOO_MODULES:
        importlib.import_module(module)


def available_models() -> list[str]:
    """All registered model names, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_entry(name: str) -> ModelEntry:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def build_model(
    name: str, image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    """Build a registered architecture for a given square image size."""
    entry = get_entry(name)
    if image_size < entry.min_image_size:
        raise ValueError(
            f"{name} requires image_size >= {entry.min_image_size}, "
            f"got {image_size}"
        )
    return entry.builder(image_size, num_classes)
