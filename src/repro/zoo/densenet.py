"""DenseNet-121 (Huang et al.).

Dense blocks concatenate every preceding feature map, so the *input* tensor
sizes of the convolutions grow while their outputs stay at the growth rate —
the exact asymmetry the paper cites (Section 3.1) as the reason an
outputs-only regression misses DenseNet behaviour.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model


def _dense_layer(b: GraphBuilder, x: str, growth_rate: int, bn_size: int) -> str:
    """BN → ReLU → 1x1 conv → BN → ReLU → 3x3 conv (pre-activation order)."""
    out = b.bn(x)
    out = b.relu(out)
    out = b.conv(out, bn_size * growth_rate, kernel_size=1, bias=False)
    out = b.bn(out)
    out = b.relu(out)
    out = b.conv(out, growth_rate, kernel_size=3, padding=1, bias=False)
    return out


def _transition(b: GraphBuilder, x: str, out_channels: int) -> str:
    out = b.bn(x)
    out = b.relu(out)
    out = b.conv(out, out_channels, kernel_size=1, bias=False)
    return b.avgpool(out, 2, stride=2)


_BLOCK_CONFIGS = {
    "densenet121": (6, 12, 24, 16),
    "densenet169": (6, 12, 32, 32),
    "densenet201": (6, 12, 48, 32),
}


def _build_densenet(
    name: str, image_size: int, num_classes: int
) -> ComputeGraph:
    growth_rate, bn_size = 32, 4
    block_config = _BLOCK_CONFIGS[name]

    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("stem"):
        x = b.conv_bn_act(x, 64, kernel_size=7, stride=2, padding=3)
        x = b.maxpool(x, 3, stride=2, padding=1)

    channels = 64
    for block_idx, num_layers in enumerate(block_config, 1):
        for layer_idx in range(num_layers):
            with b.block(f"denseblock{block_idx}.{layer_idx}"):
                new = _dense_layer(b, x, growth_rate, bn_size)
                x = b.concat(x, new)
            channels += growth_rate
        if block_idx != len(block_config):
            with b.block(f"transition{block_idx}"):
                channels //= 2
                x = _transition(b, x, channels)

    with b.block("classifier"):
        x = b.bn(x)
        x = b.relu(x)
        x = b.classifier(x, num_classes)

    return b.finish()


def build_densenet121(
    image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    return _build_densenet("densenet121", image_size, num_classes)


def build_densenet169(
    image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    return _build_densenet("densenet169", image_size, num_classes)


def build_densenet201(
    image_size: int = 224, num_classes: int = 1000
) -> ComputeGraph:
    return _build_densenet("densenet201", image_size, num_classes)


register_model("densenet121", build_densenet121, min_image_size=32,
               family="densenet", display="DenseNet121")
register_model("densenet169", build_densenet169, min_image_size=32,
               family="densenet", display="DenseNet169")
register_model("densenet201", build_densenet201, min_image_size=32,
               family="densenet", display="DenseNet201")
