"""VGG (Simonyan & Zisserman), configurations A (VGG11) and D (VGG16).

Plain 3x3 convolution stacks separated by max-pooling; the heaviest FLOP
load in the zoo, which makes VGG the compute-bound anchor of the regression
dataset.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model

_CONFIGS: dict[str, list[int | str]] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [
        64, 64, "M",
        128, 128, "M",
        256, 256, "M",
        512, 512, "M",
        512, 512, "M",
    ],
    "vgg16": [
        64, 64, "M",
        128, 128, "M",
        256, 256, 256, "M",
        512, 512, 512, "M",
        512, 512, 512, "M",
    ],
    "vgg19": [
        64, 64, "M",
        128, 128, "M",
        256, 256, 256, 256, "M",
        512, 512, 512, 512, "M",
        512, 512, 512, 512, "M",
    ],
}


def _build_vgg(
    config: str, image_size: int, num_classes: int, batch_norm: bool = False
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    stage = 0
    with b.block("features"):
        for item in _CONFIGS[config]:
            if item == "M":
                x = b.maxpool(x, 2, stride=2)
                stage += 1
                continue
            with b.block(f"stage{stage}"):
                x = b.conv(x, int(item), kernel_size=3, padding=1)
                if batch_norm:
                    x = b.bn(x)
                x = b.relu(x)

    with b.block("classifier"):
        x = b.adaptive_avgpool(x, 7)
        x = b.flatten(x)
        x = b.linear(x, 4096)
        x = b.relu(x)
        x = b.dropout(x, 0.5)
        x = b.linear(x, 4096)
        x = b.relu(x)
        x = b.dropout(x, 0.5)
        x = b.linear(x, num_classes)

    return b.finish()


def build_vgg11(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_vgg("vgg11", image_size, num_classes)


def build_vgg13(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_vgg("vgg13", image_size, num_classes)


def build_vgg16(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_vgg("vgg16", image_size, num_classes)


def build_vgg19(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_vgg("vgg19", image_size, num_classes)


register_model("vgg11", build_vgg11, min_image_size=32, family="classic",
               display="VGG11")
register_model("vgg13", build_vgg13, min_image_size=32, family="classic",
               display="VGG13")
register_model("vgg16", build_vgg16, min_image_size=32, family="classic",
               display="VGG16")
register_model("vgg19", build_vgg19, min_image_size=32, family="classic",
               display="VGG19")
