"""RegNet-X (Radosavovic et al., "Designing Network Design Spaces").

Stage widths/depths follow the published RegNetX-400MF and RegNetX-8GF
configurations.  The residual unit is the ResBottleneckBlock that Table 2
extracts for block-wise prediction (group-width convolutions, expansion 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model


@dataclass(frozen=True)
class _RegNetConfig:
    depths: tuple[int, ...]
    widths: tuple[int, ...]
    group_width: int
    #: SE squeeze ratio relative to the block's *input* width (RegNet-Y);
    #: None for the plain X variants.
    se_ratio: float | None = None


# Published RegNet configurations (depth, width per stage, group width).
_CONFIGS = {
    "regnet_x_400mf": _RegNetConfig((1, 2, 7, 12), (32, 64, 160, 384), 16),
    "regnet_x_8gf": _RegNetConfig((2, 5, 15, 1), (80, 240, 720, 1920), 120),
    "regnet_y_400mf": _RegNetConfig((1, 3, 6, 6), (48, 104, 208, 440), 8,
                                    se_ratio=0.25),
    "regnet_y_8gf": _RegNetConfig((2, 4, 10, 1), (224, 448, 896, 2016), 56,
                                  se_ratio=0.25),
}


def res_bottleneck_block(
    b: GraphBuilder,
    x: str,
    width: int,
    stride: int,
    group_width: int,
    se_squeeze: int | None = None,
) -> str:
    """RegNet residual bottleneck: 1x1 → 3x3 grouped → (SE) → 1x1,
    expansion 1; the Y variants add squeeze-and-excitation."""
    identity = x
    # torchvision clamps the group width to the stage width (a 80-wide stage
    # with nominal group width 120 uses one 80-wide group).
    groups = width // min(group_width, width)
    out = b.conv_bn_act(x, width, kernel_size=1)
    out = b.conv_bn_act(out, width, kernel_size=3, stride=stride, padding=1,
                        groups=groups)
    if se_squeeze is not None:
        out = b.squeeze_excite(out, se_squeeze, gate="sigmoid")
    out = b.conv(out, width, kernel_size=1, bias=False)
    out = b.bn(out)
    if stride != 1 or b.channels(identity) != width:
        identity = b.conv(identity, width, kernel_size=1, stride=stride,
                          bias=False)
        identity = b.bn(identity)
    out = b.add(out, identity)
    return b.relu(out)


def _build_regnet(
    name: str, image_size: int, num_classes: int
) -> ComputeGraph:
    cfg = _CONFIGS[name]
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("stem"):
        x = b.conv_bn_act(x, 32, kernel_size=3, stride=2, padding=1)

    for stage, (depth, width) in enumerate(zip(cfg.depths, cfg.widths), 1):
        for index in range(depth):
            stride = 2 if index == 0 else 1
            se_squeeze = None
            if cfg.se_ratio is not None:
                # torchvision squeezes relative to the block's input width.
                se_squeeze = max(1, int(round(cfg.se_ratio * b.channels(x))))
            with b.block(f"block{stage}.{index}"):
                x = res_bottleneck_block(b, x, width, stride,
                                         cfg.group_width, se_squeeze)

    x = b.classifier(x, num_classes)
    return b.finish()


def build_regnet_x_400mf(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_regnet("regnet_x_400mf", image_size, num_classes)


def build_regnet_x_8gf(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_regnet("regnet_x_8gf", image_size, num_classes)


def build_regnet_y_400mf(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_regnet("regnet_y_400mf", image_size, num_classes)


def build_regnet_y_8gf(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_regnet("regnet_y_8gf", image_size, num_classes)


register_model("regnet_x_400mf", build_regnet_x_400mf, min_image_size=32,
               family="regnet", display="RegNetX-400MF")
register_model("regnet_x_8gf", build_regnet_x_8gf, min_image_size=32,
               family="regnet", display="RegNetX-8GF")
register_model("regnet_y_400mf", build_regnet_y_400mf, min_image_size=32,
               family="regnet", display="RegNetY-400MF")
register_model("regnet_y_8gf", build_regnet_y_8gf, min_image_size=32,
               family="regnet", display="RegNetY-8GF")
