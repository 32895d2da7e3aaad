"""EfficientNet-B0 (Tan & Le).

MBConv blocks: expanded depthwise-separable convolutions with
squeeze-and-excitation and SiLU activations.  Table 2 extracts an MBConv
block from this model for block-wise prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.mobilenet_v2 import _make_divisible
from repro.zoo.registry import register_model


@dataclass(frozen=True)
class _MBConfig:
    expand_ratio: int
    kernel: int
    stride: int
    out_channels: int
    repeats: int


def mbconv(b: GraphBuilder, x: str, cfg: _MBConfig, stride: int,
           out_channels: int) -> str:
    """MBConv: 1x1 expand → depthwise k×k → SE (ratio 0.25 of input) → project."""
    in_channels = b.channels(x)
    expanded = in_channels * cfg.expand_ratio
    use_res = stride == 1 and in_channels == out_channels
    out = x
    if cfg.expand_ratio != 1:
        out = b.conv_bn_act(out, expanded, kernel_size=1, act="silu")
    padding = (cfg.kernel - 1) // 2
    out = b.conv_bn_act(out, expanded, kernel_size=cfg.kernel, stride=stride,
                        padding=padding, groups=expanded, act="silu")
    squeeze = max(1, in_channels // 4)
    out = b.squeeze_excite(out, squeeze, gate="sigmoid", act="silu")
    out = b.conv(out, out_channels, kernel_size=1, bias=False)
    out = b.bn(out)
    if use_res:
        out = b.add(x, out)
    return out


_B0_CONFIG = [
    _MBConfig(1, 3, 1, 16, 1),
    _MBConfig(6, 3, 2, 24, 2),
    _MBConfig(6, 5, 2, 40, 2),
    _MBConfig(6, 3, 2, 80, 3),
    _MBConfig(6, 5, 1, 112, 3),
    _MBConfig(6, 5, 2, 192, 4),
    _MBConfig(6, 3, 1, 320, 1),
]


def _round_repeats(repeats: int, depth_mult: float) -> int:
    """EfficientNet compound scaling rounds repeats up."""
    import math

    return int(math.ceil(depth_mult * repeats))


def _build_efficientnet(
    width_mult: float,
    depth_mult: float,
    image_size: int,
    num_classes: int,
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    stem_channels = _make_divisible(32 * width_mult)
    with b.block("stem"):
        x = b.conv_bn_act(x, stem_channels, kernel_size=3, stride=2,
                          padding=1, act="silu")

    block_index = 0
    for cfg in _B0_CONFIG:
        out_channels = _make_divisible(cfg.out_channels * width_mult)
        for i in range(_round_repeats(cfg.repeats, depth_mult)):
            stride = cfg.stride if i == 0 else 1
            with b.block(f"features.{block_index}"):
                x = mbconv(b, x, cfg, stride, out_channels)
            block_index += 1

    head_channels = _make_divisible(1280 * max(1.0, width_mult))
    with b.block("head"):
        x = b.conv_bn_act(x, head_channels, kernel_size=1, act="silu")
        x = b.classifier(x, num_classes, dropout=0.2)

    return b.finish()


def build_efficientnet_b0(
    image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    return _build_efficientnet(1.0, 1.0, image_size, num_classes)


def build_efficientnet_b1(
    image_size: int = 240, num_classes: int = 1000
) -> ComputeGraph:
    return _build_efficientnet(1.0, 1.1, image_size, num_classes)


def build_efficientnet_b2(
    image_size: int = 260, num_classes: int = 1000
) -> ComputeGraph:
    return _build_efficientnet(1.1, 1.2, image_size, num_classes)


def build_efficientnet_b3(
    image_size: int = 300, num_classes: int = 1000
) -> ComputeGraph:
    return _build_efficientnet(1.2, 1.4, image_size, num_classes)


register_model("efficientnet_b0", build_efficientnet_b0, min_image_size=32,
               family="mobile", display="EfficientNet-B0")
register_model("efficientnet_b1", build_efficientnet_b1, min_image_size=32,
               family="mobile", display="EfficientNet-B1")
register_model("efficientnet_b2", build_efficientnet_b2, min_image_size=32,
               family="mobile", display="EfficientNet-B2")
register_model("efficientnet_b3", build_efficientnet_b3, min_image_size=32,
               family="mobile", display="EfficientNet-B3")
