"""The ResNet family: ResNet18/34/50, Wide-ResNet50-2, ResNeXt50-32x4d.

One parametrised builder covers the whole family; the grouped/widened
bottleneck variants differ only in the ``groups`` and ``width_per_group``
knobs, exactly as in torchvision.  Block scopes follow torchvision naming
(``layer<stage>.<index>``) so Table 2's blocks ("Bottleneck4 of ResNet50",
"BasicBlock7 of ResNet18", …) can be extracted by scope.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model


def _basic_block(
    b: GraphBuilder, x: str, planes: int, stride: int
) -> str:
    """Two 3x3 convolutions with identity/projection shortcut (expansion 1)."""
    identity = x
    out = b.conv_bn_act(x, planes, kernel_size=3, stride=stride, padding=1)
    out = b.conv(out, planes, kernel_size=3, padding=1, bias=False)
    out = b.bn(out)
    if stride != 1 or b.channels(identity) != planes:
        identity = b.conv(identity, planes, kernel_size=1, stride=stride,
                          bias=False)
        identity = b.bn(identity)
    out = b.add(out, identity)
    return b.relu(out)


def _bottleneck(
    b: GraphBuilder,
    x: str,
    planes: int,
    stride: int,
    groups: int,
    base_width: int,
    expansion: int = 4,
) -> str:
    """1x1 reduce → 3x3 (grouped) → 1x1 expand with shortcut."""
    identity = x
    width = int(planes * (base_width / 64.0)) * groups
    out = b.conv_bn_act(x, width, kernel_size=1)
    out = b.conv_bn_act(out, width, kernel_size=3, stride=stride, padding=1,
                        groups=groups)
    out = b.conv(out, planes * expansion, kernel_size=1, bias=False)
    out = b.bn(out)
    if stride != 1 or b.channels(identity) != planes * expansion:
        identity = b.conv(identity, planes * expansion, kernel_size=1,
                          stride=stride, bias=False)
        identity = b.bn(identity)
    out = b.add(out, identity)
    return b.relu(out)


def _build_resnet(
    layers: tuple[int, int, int, int],
    image_size: int,
    num_classes: int,
    bottleneck: bool,
    groups: int = 1,
    base_width: int = 64,
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("stem"):
        x = b.conv_bn_act(x, 64, kernel_size=7, stride=2, padding=3)
        x = b.maxpool(x, 3, stride=2, padding=1)

    planes = 64
    for stage, blocks in enumerate(layers, start=1):
        for index in range(blocks):
            stride = 2 if (stage > 1 and index == 0) else 1
            with b.block(f"layer{stage}.{index}"):
                if bottleneck:
                    x = _bottleneck(b, x, planes, stride, groups, base_width)
                else:
                    x = _basic_block(b, x, planes, stride)
        planes *= 2

    x = b.classifier(x, num_classes)
    return b.finish()


def build_resnet18(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((2, 2, 2, 2), image_size, num_classes,
                         bottleneck=False)


def build_resnet34(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((3, 4, 6, 3), image_size, num_classes,
                         bottleneck=False)


def build_resnet50(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((3, 4, 6, 3), image_size, num_classes,
                         bottleneck=True)


def build_wide_resnet50(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((3, 4, 6, 3), image_size,
                         num_classes, bottleneck=True, base_width=128)


def build_resnet101(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((3, 4, 23, 3), image_size, num_classes,
                         bottleneck=True)


def build_resnet152(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((3, 8, 36, 3), image_size, num_classes,
                         bottleneck=True)


def build_resnext50(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((3, 4, 6, 3), image_size,
                         num_classes, bottleneck=True, groups=32, base_width=4)


def build_resnext101(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_resnet((3, 4, 23, 3), image_size,
                         num_classes, bottleneck=True, groups=32, base_width=8)


register_model("resnet18", build_resnet18, min_image_size=32,
               family="resnet", display="ResNet18")
register_model("resnet34", build_resnet34, min_image_size=32,
               family="resnet", display="ResNet34")
register_model("resnet50", build_resnet50, min_image_size=32,
               family="resnet", display="ResNet50")
register_model("resnet101", build_resnet101, min_image_size=32,
               family="resnet", display="ResNet101")
register_model("resnet152", build_resnet152, min_image_size=32,
               family="resnet", display="ResNet152")
register_model("resnext101_32x8d", build_resnext101, min_image_size=32,
               family="resnet", display="ResNeXt101-32x8d")
register_model("wide_resnet50_2", build_wide_resnet50, min_image_size=32,
               family="resnet", display="Wide-ResNet50")
register_model("resnext50_32x4d", build_resnext50, min_image_size=32,
               family="resnet", display="ResNeXt50-32x4d")
