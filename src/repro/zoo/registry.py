"""Registry of model builders.

Models register themselves via :func:`register_model`; consumers call
:func:`build_model`, which validates the requested image size against the
architecture's minimum (stride pyramids eventually shrink a feature map to
nothing) and required multiple (ViT's patch size) — mirroring the paper's
campaign, which only runs configurations the architecture and device memory
allow — and names the graph ``<name>_<image_size>``.  A builder branches on
the image size for nothing else, so :func:`build_model` can hand it a whole
axis of sizes as one int64 column: every shape is then inferred over the
axis in the one build (see :mod:`repro.graph.tensor`).
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.graph.graph import ComputeGraph

#: ``(image_size, num_classes) -> graph``; the image size may be an int64
#: column of sizes (see :func:`build_model`).
Builder = Callable[[int | np.ndarray, int], ComputeGraph]


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
    #: The image size must be a multiple of this (a ViT's patch size).
    image_multiple: int = 1


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
    image_multiple: int = 1,
) -> None:
    if name in _REGISTRY:
        raise ValueError(f"model {name!r} already registered")
    _REGISTRY[name] = ModelEntry(
        name=name,
        builder=builder,
        min_image_size=min_image_size,
        family=family,
        display=display or name,
        image_multiple=image_multiple,
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


def check_image_size(name: str, image_size: int) -> None:
    """Raise ``ValueError`` unless ``name`` can be built at ``image_size``."""
    entry = get_entry(name)
    if image_size < entry.min_image_size:
        raise ValueError(
            f"{name} requires image_size >= {entry.min_image_size}, "
            f"got {image_size}"
        )
    if image_size % entry.image_multiple:
        raise ValueError(
            f"{name} requires image_size divisible by "
            f"{entry.image_multiple}, got {image_size}"
        )


def build_model(
    name: str, images: int | Sequence[int] = 224, num_classes: int = 1000
) -> ComputeGraph:
    """Build a registered architecture for a square image size, or over a
    sequence of them at once, named ``<name>_<largest image>``.

    Each size is checked (:func:`check_image_size`); a sequence reaches the
    builder as one int64 column, so each dim of the graph is an ``int`` or
    a column with one entry per size, in order.
    """
    axis = np.ndim(images) > 0
    sizes = tuple(images) if axis else (images,)
    for size in sizes:
        check_image_size(name, size)
    graph = get_entry(name).builder(
        np.asarray(sizes, np.int64) if axis else images, num_classes
    )
    graph.name = f"{name}_{max(sizes)}"
    return graph
