"""AlexNet (Krizhevsky, "one weird trick" torchvision variant).

The paper singles AlexNet out twice: its inference time is low despite its
size (tiny convolutional FLOPs), and its node scaling flattens earliest
(huge fully connected weight tensors dominate the gradient all-reduce).
Both properties come straight out of this definition.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.zoo.registry import register_model


def build_alexnet(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("features"):
        x = b.conv(x, 64, kernel_size=11, stride=4, padding=2)
        x = b.relu(x)
        x = b.maxpool(x, 3, stride=2)
        x = b.conv(x, 192, kernel_size=5, padding=2)
        x = b.relu(x)
        x = b.maxpool(x, 3, stride=2)
        x = b.conv(x, 384, kernel_size=3, padding=1)
        x = b.relu(x)
        x = b.conv(x, 256, kernel_size=3, padding=1)
        x = b.relu(x)
        x = b.conv(x, 256, kernel_size=3, padding=1)
        x = b.relu(x)
        x = b.maxpool(x, 3, stride=2)

    with b.block("classifier"):
        x = b.adaptive_avgpool(x, 6)
        x = b.flatten(x)
        x = b.dropout(x, 0.5)
        x = b.linear(x, 4096)
        x = b.relu(x)
        x = b.dropout(x, 0.5)
        x = b.linear(x, 4096)
        x = b.relu(x)
        x = b.linear(x, num_classes)

    return b.finish()


register_model(
    "alexnet",
    build_alexnet,
    min_image_size=63,
    family="classic",
    display="AlexNet",
)
