"""Inception V3 (Szegedy et al., torchvision variant, no aux classifier).

The multi-branch modules use asymmetric 1x7/7x1 factorised convolutions.
Table 2 extracts one of the stem's plain "Conv2d 3x3" BasicConv2d units.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model


def _basic_conv(
    b: GraphBuilder,
    x: str,
    out_channels: int,
    kernel_size: int | tuple[int, int],
    stride: int = 1,
    padding: int | tuple[int, int] = 0,
) -> str:
    """torchvision BasicConv2d: conv (no bias) → batch norm → relu."""
    return b.conv_bn_act(x, out_channels, kernel_size=kernel_size,
                         stride=stride, padding=padding)


def _inception_a(b: GraphBuilder, x: str, pool_features: int) -> str:
    b1 = _basic_conv(b, x, 64, 1)
    b5 = _basic_conv(b, x, 48, 1)
    b5 = _basic_conv(b, b5, 64, 5, padding=2)
    b3 = _basic_conv(b, x, 64, 1)
    b3 = _basic_conv(b, b3, 96, 3, padding=1)
    b3 = _basic_conv(b, b3, 96, 3, padding=1)
    bp = b.avgpool(x, 3, stride=1, padding=1)
    bp = _basic_conv(b, bp, pool_features, 1)
    return b.concat(b1, b5, b3, bp)


def _inception_b(b: GraphBuilder, x: str) -> str:
    b3 = _basic_conv(b, x, 384, 3, stride=2)
    bd = _basic_conv(b, x, 64, 1)
    bd = _basic_conv(b, bd, 96, 3, padding=1)
    bd = _basic_conv(b, bd, 96, 3, stride=2)
    bp = b.maxpool(x, 3, stride=2)
    return b.concat(b3, bd, bp)


def _inception_c(b: GraphBuilder, x: str, c7: int) -> str:
    b1 = _basic_conv(b, x, 192, 1)
    b7 = _basic_conv(b, x, c7, 1)
    b7 = _basic_conv(b, b7, c7, (1, 7), padding=(0, 3))
    b7 = _basic_conv(b, b7, 192, (7, 1), padding=(3, 0))
    bd = _basic_conv(b, x, c7, 1)
    bd = _basic_conv(b, bd, c7, (7, 1), padding=(3, 0))
    bd = _basic_conv(b, bd, c7, (1, 7), padding=(0, 3))
    bd = _basic_conv(b, bd, c7, (7, 1), padding=(3, 0))
    bd = _basic_conv(b, bd, 192, (1, 7), padding=(0, 3))
    bp = b.avgpool(x, 3, stride=1, padding=1)
    bp = _basic_conv(b, bp, 192, 1)
    return b.concat(b1, b7, bd, bp)


def _inception_d(b: GraphBuilder, x: str) -> str:
    b3 = _basic_conv(b, x, 192, 1)
    b3 = _basic_conv(b, b3, 320, 3, stride=2)
    b7 = _basic_conv(b, x, 192, 1)
    b7 = _basic_conv(b, b7, 192, (1, 7), padding=(0, 3))
    b7 = _basic_conv(b, b7, 192, (7, 1), padding=(3, 0))
    b7 = _basic_conv(b, b7, 192, 3, stride=2)
    bp = b.maxpool(x, 3, stride=2)
    return b.concat(b3, b7, bp)


def _inception_e(b: GraphBuilder, x: str) -> str:
    b1 = _basic_conv(b, x, 320, 1)
    b3 = _basic_conv(b, x, 384, 1)
    b3a = _basic_conv(b, b3, 384, (1, 3), padding=(0, 1))
    b3b = _basic_conv(b, b3, 384, (3, 1), padding=(1, 0))
    b3 = b.concat(b3a, b3b)
    bd = _basic_conv(b, x, 448, 1)
    bd = _basic_conv(b, bd, 384, 3, padding=1)
    bda = _basic_conv(b, bd, 384, (1, 3), padding=(0, 1))
    bdb = _basic_conv(b, bd, 384, (3, 1), padding=(1, 0))
    bd = b.concat(bda, bdb)
    bp = b.avgpool(x, 3, stride=1, padding=1)
    bp = _basic_conv(b, bp, 192, 1)
    return b.concat(b1, b3, bd, bp)


def build_inception_v3(
    image_size: int = 299, num_classes: int = 1000
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("stem.conv0"):
        x = _basic_conv(b, x, 32, 3, stride=2)
    with b.block("stem.conv1"):
        x = _basic_conv(b, x, 32, 3)
    with b.block("stem.conv2"):
        x = _basic_conv(b, x, 64, 3, padding=1)
    x = b.maxpool(x, 3, stride=2)
    with b.block("stem.conv3"):
        x = _basic_conv(b, x, 80, 1)
    with b.block("stem.conv4"):
        x = _basic_conv(b, x, 192, 3)
    x = b.maxpool(x, 3, stride=2)

    for i, pool_features in enumerate((32, 64, 64)):
        with b.block(f"mixed5{chr(ord('b') + i)}"):
            x = _inception_a(b, x, pool_features)
    with b.block("mixed6a"):
        x = _inception_b(b, x)
    for i, c7 in enumerate((128, 160, 160, 192)):
        with b.block(f"mixed6{chr(ord('b') + i)}"):
            x = _inception_c(b, x, c7)
    with b.block("mixed7a"):
        x = _inception_d(b, x)
    for i in range(2):
        with b.block(f"mixed7{chr(ord('b') + i)}"):
            x = _inception_e(b, x)

    with b.block("classifier"):
        x = b.classifier(x, num_classes, dropout=0.5)

    return b.finish()


register_model("inception_v3", build_inception_v3, min_image_size=75,
               family="inception", display="InceptionV3")
