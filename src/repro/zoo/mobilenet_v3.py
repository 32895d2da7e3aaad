"""MobileNetV3 (Howard et al.), Small and Large variants.

Adds squeeze-and-excitation gates and hard-swish activations to the V2
inverted residual; the kernel mix (3x3/5x5 depthwise, SE reductions) makes
these the most heterogeneous graphs in the zoo.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.mobilenet_v2 import _make_divisible
from repro.zoo.registry import register_model


@dataclass(frozen=True)
class _V3Block:
    kernel: int
    expanded: int
    out: int
    use_se: bool
    activation: str  # "relu" or "hardswish"
    stride: int


def inverted_residual_v3(b: GraphBuilder, x: str, cfg: _V3Block) -> str:
    """MobileNetV3 inverted residual with optional SE and hard-swish."""
    in_channels = b.channels(x)
    use_res = cfg.stride == 1 and in_channels == cfg.out
    out = x
    if cfg.expanded != in_channels:
        out = b.conv_bn_act(out, cfg.expanded, kernel_size=1,
                            act=cfg.activation)
    padding = (cfg.kernel - 1) // 2
    out = b.conv_bn_act(out, cfg.expanded, kernel_size=cfg.kernel,
                        stride=cfg.stride, padding=padding,
                        groups=cfg.expanded, act=cfg.activation)
    if cfg.use_se:
        squeeze = _make_divisible(cfg.expanded // 4)
        out = b.squeeze_excite(out, squeeze, gate="hardsigmoid")
    out = b.conv(out, cfg.out, kernel_size=1, bias=False)
    out = b.bn(out)
    if use_res:
        out = b.add(x, out)
    return out


_LARGE = [
    _V3Block(3, 16, 16, False, "relu", 1),
    _V3Block(3, 64, 24, False, "relu", 2),
    _V3Block(3, 72, 24, False, "relu", 1),
    _V3Block(5, 72, 40, True, "relu", 2),
    _V3Block(5, 120, 40, True, "relu", 1),
    _V3Block(5, 120, 40, True, "relu", 1),
    _V3Block(3, 240, 80, False, "hardswish", 2),
    _V3Block(3, 200, 80, False, "hardswish", 1),
    _V3Block(3, 184, 80, False, "hardswish", 1),
    _V3Block(3, 184, 80, False, "hardswish", 1),
    _V3Block(3, 480, 112, True, "hardswish", 1),
    _V3Block(3, 672, 112, True, "hardswish", 1),
    _V3Block(5, 672, 160, True, "hardswish", 2),
    _V3Block(5, 960, 160, True, "hardswish", 1),
    _V3Block(5, 960, 160, True, "hardswish", 1),
]

_SMALL = [
    _V3Block(3, 16, 16, True, "relu", 2),
    _V3Block(3, 72, 24, False, "relu", 2),
    _V3Block(3, 88, 24, False, "relu", 1),
    _V3Block(5, 96, 40, True, "hardswish", 2),
    _V3Block(5, 240, 40, True, "hardswish", 1),
    _V3Block(5, 240, 40, True, "hardswish", 1),
    _V3Block(5, 120, 48, True, "hardswish", 1),
    _V3Block(5, 144, 48, True, "hardswish", 1),
    _V3Block(5, 288, 96, True, "hardswish", 2),
    _V3Block(5, 576, 96, True, "hardswish", 1),
    _V3Block(5, 576, 96, True, "hardswish", 1),
]


def _build_v3(
    blocks: list[_V3Block],
    last_conv: int,
    last_linear: int,
    image_size: int,
    num_classes: int,
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("stem"):
        x = b.conv_bn_act(x, 16, kernel_size=3, stride=2, padding=1,
                          act="hardswish")

    for index, cfg in enumerate(blocks):
        with b.block(f"features.{index + 1}"):
            x = inverted_residual_v3(b, x, cfg)

    with b.block("head"):
        x = b.conv_bn_act(x, last_conv, kernel_size=1, act="hardswish")
        x = b.adaptive_avgpool(x, 1)
        x = b.flatten(x)
        x = b.linear(x, last_linear)
        x = b.act(x, "hardswish")
        x = b.dropout(x, 0.2)
        x = b.linear(x, num_classes)

    return b.finish()


def build_mobilenet_v3_large(
    image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    return _build_v3(_LARGE, 960, 1280, image_size, num_classes)


def build_mobilenet_v3_small(
    image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    return _build_v3(_SMALL, 576, 1024, image_size, num_classes)


register_model("mobilenet_v3_large", build_mobilenet_v3_large,
               min_image_size=32, family="mobile", display="MobileNetV3-L")
register_model("mobilenet_v3_small", build_mobilenet_v3_small,
               min_image_size=32, family="mobile", display="MobileNetV3-S")
