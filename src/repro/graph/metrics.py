"""Per-layer cost accounting for ConvNet graphs.

These counts are the raw material for ConvMeter's metric vector (Section 3
of the paper): FLOPs per layer, input/output tensor element counts, and
parameter counts — all per sample (batch size one), since every one of these
quantities scales linearly with the batch size.  On a graph built over an
image axis (:func:`repro.zoo.build_model` with a sequence of sizes), every
count is an int64 column with one entry per image.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import ComputeGraph, Node
from repro.graph.layers import Conv2d, Input


@dataclass(frozen=True)
class LayerCost:
    """Static cost of one layer for a single sample."""

    name: str
    layer_type: str
    block: str
    flops: int
    input_elems: int
    output_elems: int
    params: int
    is_conv: bool
    #: Convolution group count (1 for everything else).
    conv_groups: int = 1
    #: True for depthwise convolutions (one input channel per group).
    is_depthwise: bool = False
    #: True for 1x1 (pointwise) convolutions.
    is_pointwise: bool = False

    @property
    def input_bytes(self) -> int:
        return 4 * self.input_elems

    @property
    def output_bytes(self) -> int:
        return 4 * self.output_elems

    @property
    def weight_bytes(self) -> int:
        return 4 * self.params


@dataclass(frozen=True)
class CostSummary:
    """Aggregate costs of a graph for a single sample."""

    #: FLOPs over all layers (paper metric F).
    flops: int
    #: Sum of input tensor sizes of convolutional layers (paper metric I).
    conv_input_elems: int
    #: Sum of output tensor sizes of convolutional layers (paper metric O).
    conv_output_elems: int
    #: Total learnable parameters (paper metric W).
    weights: int
    #: Number of parameter-owning layers (paper metric L).
    layers: int
    #: Total activation elements across all layers (memory-footprint input).
    total_output_elems: int

    def at_batch(self, batch: int) -> "CostSummary":
        """Metric vector for a mini-batch of ``batch`` samples.

        The activation-linked metrics (FLOPs, Inputs, Outputs, activation
        footprint) scale *exactly* linearly with the batch size — the
        property ConvMeter's ``b·(c1·F + c2·I + c3·O)`` regression relies
        on — while weights and layer count are batch-invariant.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return CostSummary(
            flops=self.flops * batch,
            conv_input_elems=self.conv_input_elems * batch,
            conv_output_elems=self.conv_output_elems * batch,
            weights=self.weights,
            layers=self.layers,
            total_output_elems=self.total_output_elems * batch,
        )


def node_cost(graph: ComputeGraph, node: Node) -> LayerCost:
    """Cost record for one node."""
    in_shapes = graph.input_shapes(node)
    out_shape = node.output_shape
    layer = node.layer
    conv_groups = 1
    is_depthwise = False
    is_pointwise = False
    if isinstance(layer, Conv2d):
        conv_groups = layer.groups
        is_depthwise = layer.is_depthwise
        kh, kw = (
            layer.kernel_size
            if isinstance(layer.kernel_size, tuple)
            else (layer.kernel_size, layer.kernel_size)
        )
        is_pointwise = kh == 1 and kw == 1
    return LayerCost(
        name=node.name,
        layer_type=type(layer).__name__,
        block=node.block,
        flops=layer.flops(in_shapes, out_shape),
        input_elems=sum(s.numel for s in in_shapes),
        output_elems=out_shape.numel,
        params=layer.param_count(),
        is_conv=layer.is_conv,
        conv_groups=conv_groups,
        is_depthwise=is_depthwise,
        is_pointwise=is_pointwise,
    )


def graph_costs(graph: ComputeGraph) -> list[LayerCost]:
    """Per-layer costs in topological order, skipping input placeholders."""
    return [
        node_cost(graph, node)
        for node in graph
        if not isinstance(node.layer, Input)
    ]


def summarize_costs(graph: ComputeGraph) -> CostSummary:
    """Aggregate a graph's per-layer costs into ConvMeter's metric vector."""
    costs = graph_costs(graph)
    return CostSummary(
        flops=sum(c.flops for c in costs),
        conv_input_elems=sum(c.input_elems for c in costs if c.is_conv),
        conv_output_elems=sum(c.output_elems for c in costs if c.is_conv),
        weights=graph.parameter_count(),
        layers=graph.parametric_layer_count(),
        total_output_elems=sum(c.output_elems for c in costs),
    )
