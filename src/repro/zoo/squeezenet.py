"""SqueezeNet 1.0 (Iandola et al.).

Fire modules: a 1x1 squeeze convolution feeding parallel 1x1 and 3x3 expand
convolutions whose outputs are concatenated.  The concat-heavy topology is
what trips up the DIPPM stand-in in the Figure 6 comparison, as it did the
real DIPPM graph parser.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model


def _fire(
    b: GraphBuilder, x: str, squeeze: int, expand1x1: int, expand3x3: int
) -> str:
    s = b.conv(x, squeeze, kernel_size=1)
    s = b.relu(s)
    e1 = b.conv(s, expand1x1, kernel_size=1)
    e1 = b.relu(e1)
    e3 = b.conv(s, expand3x3, kernel_size=3, padding=1)
    e3 = b.relu(e3)
    return b.concat(e1, e3)


_V10_FIRES: list = [
    (16, 64, 64),
    (16, 64, 64),
    (32, 128, 128),
    "M",
    (32, 128, 128),
    (48, 192, 192),
    (48, 192, 192),
    (64, 256, 256),
    "M",
    (64, 256, 256),
]

_V11_FIRES: list = [
    (16, 64, 64),
    (16, 64, 64),
    "M",
    (32, 128, 128),
    (32, 128, 128),
    "M",
    (48, 192, 192),
    (48, 192, 192),
    (64, 256, 256),
    (64, 256, 256),
]


def _build_squeezenet(
    version: str, image_size: int, num_classes: int
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("stem"):
        if version == "1_0":
            x = b.conv(x, 96, kernel_size=7, stride=2)
        else:
            x = b.conv(x, 64, kernel_size=3, stride=2)
        x = b.relu(x)
        x = b.maxpool(x, 3, stride=2, ceil_mode=True)

    fire_cfg = _V10_FIRES if version == "1_0" else _V11_FIRES
    index = 2
    for cfg in fire_cfg:
        if cfg == "M":
            x = b.maxpool(x, 3, stride=2, ceil_mode=True)
            continue
        with b.block(f"fire{index}"):
            x = _fire(b, x, *cfg)
        index += 1

    with b.block("classifier"):
        x = b.dropout(x, 0.5)
        x = b.conv(x, num_classes, kernel_size=1)
        x = b.relu(x)
        x = b.adaptive_avgpool(x, 1)
        x = b.flatten(x)

    return b.finish()


def build_squeezenet(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_squeezenet("1_0", image_size, num_classes)


def build_squeezenet_1_1(
    image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    return _build_squeezenet("1_1", image_size, num_classes)


register_model("squeezenet1_0", build_squeezenet, min_image_size=33,
               family="mobile", display="SqueezeNet1.0")
register_model("squeezenet1_1", build_squeezenet_1_1, min_image_size=33,
               family="mobile", display="SqueezeNet1.1")
