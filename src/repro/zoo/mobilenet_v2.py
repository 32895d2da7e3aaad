"""MobileNetV2 (Sandler et al.) — inverted residuals with linear bottlenecks.

Depthwise-separable convolutions give a very low FLOP count relative to the
activation traffic, which is why the paper's FLOPs-only baseline fails on
this family and why MobileNets show the highest MAPE in Tables 1 and 2.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model


def _make_divisible(v: float, divisor: int = 8) -> int:
    """Round channel counts to multiples of 8, keeping within 10% (torchvision)."""
    new_v = max(divisor, int(v + divisor / 2) // divisor * divisor)
    if new_v < 0.9 * v:
        new_v += divisor
    return new_v


def inverted_residual_v2(
    b: GraphBuilder, x: str, out_channels: int, stride: int, expand_ratio: int
) -> str:
    """Expand (1x1) → depthwise (3x3) → project (1x1), residual if shapes match."""
    in_channels = b.channels(x)
    hidden = int(round(in_channels * expand_ratio))
    use_res = stride == 1 and in_channels == out_channels
    out = x
    if expand_ratio != 1:
        out = b.conv_bn_act(out, hidden, kernel_size=1, act="relu6")
    out = b.conv_bn_act(out, hidden, kernel_size=3, stride=stride, padding=1,
                        groups=hidden, act="relu6")
    out = b.conv(out, out_channels, kernel_size=1, bias=False)
    out = b.bn(out)
    if use_res:
        out = b.add(x, out)
    return out


# (expand_ratio, channels, repeats, stride)
_V2_CONFIG = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
]


def build_mobilenet_v2(
    image_size: int = 224, num_classes: int = 1000, width_mult: float = 1.0
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    input_channel = _make_divisible(32 * width_mult)
    with b.block("stem"):
        x = b.conv_bn_act(x, input_channel, kernel_size=3, stride=2, padding=1,
                          act="relu6")

    block_index = 0
    for t, c, n, s in _V2_CONFIG:
        out_channel = _make_divisible(c * width_mult)
        for i in range(n):
            stride = s if i == 0 else 1
            with b.block(f"features.{block_index}"):
                x = inverted_residual_v2(b, x, out_channel, stride, t)
            block_index += 1

    last_channel = _make_divisible(max(1280 * width_mult, 1280))
    with b.block("head"):
        x = b.conv_bn_act(x, last_channel, kernel_size=1, act="relu6")
        x = b.classifier(x, num_classes, dropout=0.2)

    return b.finish()


register_model("mobilenet_v2", build_mobilenet_v2, min_image_size=32,
               family="mobile", display="MobileNetV2")
