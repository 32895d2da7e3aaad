"""Fluent construction API for ConvNet graphs.

The model zoo builds every architecture through this class.  Handles are
plain node-name strings; the builder infers each layer's shape as it goes
so layer parameters that are derivable (for example a convolution's input
channel count) never have to be repeated, which keeps the zoo definitions
close to their torchvision counterparts.  An input whose spatial dims are
an image-axis column (:mod:`repro.graph.tensor`) builds the graph over
that whole axis at once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.graph.graph import ComputeGraph, Node
from repro.graph.layers import (
    Activation,
    AdaptiveAvgPool2d,
    Add,
    AvgPool2d,
    BatchNorm2d,
    Concat,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Input,
    Layer,
    Linear,
    LocalResponseNorm,
    MaxPool2d,
    Multiply,
)
from repro.graph.tensor import TensorShape


class GraphBuilder:
    """Incrementally builds a :class:`ComputeGraph` in topological order.

    The zoo leaves ``name`` empty: :func:`repro.zoo.build_model` names
    the graphs it builds.
    """

    def __init__(self, name: str = "") -> None:
        self.graph = ComputeGraph(name)
        self._counters: dict[str, int] = {}
        self._scopes: list[str] = []

    # -- infrastructure ------------------------------------------------------

    def _fresh_name(self, kind: str) -> str:
        idx = self._counters.get(kind, 0)
        self._counters[kind] = idx + 1
        return f"{kind}_{idx}"

    @property
    def _scope(self) -> str:
        return ".".join(self._scopes)

    @contextmanager
    def block(self, scope: str) -> Iterator[None]:
        """Tag all layers added inside the context with a block scope."""
        self._scopes.append(scope)
        try:
            yield
        finally:
            self._scopes.pop()

    def add_layer(self, layer: Layer, *inputs: str, name: str | None = None) -> str:
        """Append a layer consuming the given handles; returns its handle."""
        node_name = name or self._fresh_name(type(layer).__name__.lower())
        shapes = [self.graph.node(p).output_shape for p in inputs]
        out_shape = layer.infer_shape(shapes)
        self.graph.add_node(
            Node(node_name, layer, tuple(inputs), out_shape, block=self._scope)
        )
        return node_name

    def shape(self, handle: str) -> TensorShape:
        """Resolved per-sample shape of a handle."""
        return self.graph.node(handle).output_shape

    def channels(self, handle: str) -> int:
        return self.shape(handle).channels

    def finish(self) -> ComputeGraph:
        """The built graph; every stored shape is what inference gave."""
        return self.graph

    # -- layer shorthands ------------------------------------------------------

    def input(self, channels: int, height: int, width: int) -> str:
        shape = TensorShape(channels, height, width)
        return self.add_layer(Input(shape))

    def conv(
        self,
        x: str,
        out_channels: int,
        kernel_size: int | tuple[int, int] = 3,
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        groups: int = 1,
        dilation: int = 1,
        bias: bool = True,
    ) -> str:
        layer = Conv2d(
            in_channels=self.channels(x),
            out_channels=out_channels,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            groups=groups,
            dilation=dilation,
            bias=bias,
        )
        return self.add_layer(layer, x)

    def bn(self, x: str) -> str:
        return self.add_layer(BatchNorm2d(self.channels(x)), x)

    def act(self, x: str, kind: str = "relu") -> str:
        return self.add_layer(Activation(kind), x)

    def relu(self, x: str) -> str:
        return self.act(x, "relu")

    def conv_bn_act(
        self,
        x: str,
        out_channels: int,
        kernel_size: int | tuple[int, int] = 3,
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        groups: int = 1,
        act: str | None = "relu",
    ) -> str:
        """The conv → batch-norm → activation idiom used by most modern nets."""
        x = self.conv(
            x,
            out_channels,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            groups=groups,
            bias=False,
        )
        x = self.bn(x)
        if act is not None:
            x = self.act(x, act)
        return x

    def maxpool(
        self,
        x: str,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
        padding: int | tuple[int, int] = 0,
        ceil_mode: bool = False,
    ) -> str:
        return self.add_layer(
            MaxPool2d(kernel_size, stride, padding, ceil_mode), x
        )

    def avgpool(
        self,
        x: str,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
        padding: int | tuple[int, int] = 0,
        ceil_mode: bool = False,
    ) -> str:
        return self.add_layer(
            AvgPool2d(kernel_size, stride, padding, ceil_mode), x
        )

    def adaptive_avgpool(self, x: str, output_size: int | tuple[int, int] = 1) -> str:
        return self.add_layer(AdaptiveAvgPool2d(output_size), x)

    def global_avgpool(self, x: str) -> str:
        return self.add_layer(GlobalAvgPool2d(), x)

    def linear(self, x: str, out_features: int, bias: bool = True) -> str:
        return self.add_layer(
            Linear(self.channels(x), out_features, bias=bias), x
        )

    def flatten(self, x: str) -> str:
        return self.add_layer(Flatten(), x)

    def dropout(self, x: str, p: float = 0.5) -> str:
        return self.add_layer(Dropout(p), x)

    def add(self, *xs: str) -> str:
        return self.add_layer(Add(), *xs)

    def concat(self, *xs: str) -> str:
        return self.add_layer(Concat(), *xs)

    def multiply(self, a: str, b: str) -> str:
        return self.add_layer(Multiply(), a, b)

    def lrn(self, x: str, size: int = 5) -> str:
        return self.add_layer(LocalResponseNorm(size), x)

    # -- composite idioms --------------------------------------------------

    def squeeze_excite(
        self,
        x: str,
        squeeze_channels: int,
        gate: str = "sigmoid",
        act: str = "relu",
    ) -> str:
        """Squeeze-and-excitation: global pool → 1x1 reduce → 1x1 expand → scale."""
        channels = self.channels(x)
        s = self.global_avgpool(x)
        s = self.conv(s, squeeze_channels, kernel_size=1)
        s = self.act(s, act)
        s = self.conv(s, channels, kernel_size=1)
        s = self.act(s, gate)
        return self.multiply(x, s)

    def classifier(self, x: str, num_classes: int, dropout: float | None = None) -> str:
        """Global average pool → flatten → (dropout) → linear head."""
        x = self.adaptive_avgpool(x, 1)
        x = self.flatten(x)
        if dropout is not None:
            x = self.dropout(x, dropout)
        return self.linear(x, num_classes)
