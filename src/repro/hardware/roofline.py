"""Vectorised roofline timing model.

A graph is compiled once into a :class:`CostProfile` — flat numpy arrays of
per-layer FLOPs, activation traffic, parameters, and an efficiency class —
after which timing any (batch, device, phase) combination is a handful of
vectorised array expressions.  This is the hot path of the measurement
campaign (thousands of configurations × hundreds of layers), so it follows
the usual scientific-Python discipline: no per-layer Python loops after
profiling.

Per-layer time:

    t = max(flops / (peak · eff_type · util(flops)),
            bytes / (bw · util(bytes)))  +  launch_overhead

where ``eff_type`` is the achievable fraction of peak for the layer's class
(dense conv ≈ GEMM-efficient, depthwise conv very poor on wide GPUs,
elementwise layers purely bandwidth-bound) and ``util`` is the saturation
ramp from :class:`~repro.hardware.device.DeviceSpec`.  The max() and the
class mix are what make total runtime only *approximately* linear in the
aggregate metrics — the realistic regime for ConvMeter's regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.caching import LRUCache
from repro.graph.graph import ComputeGraph
from repro.graph.metrics import CostSummary, LayerCost, graph_costs
from repro.hardware.device import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.benchdata.records import ConvNetFeatures
    from repro.graph.passes import PassPipeline

# Efficiency classes.
_CONV = 0        # dense convolution (im2col GEMM)
_CONV_1X1 = 1    # pointwise convolution
_CONV_GROUP = 2  # grouped convolution, 1 < groups < C_in
_CONV_DW = 3     # depthwise convolution
_LINEAR = 4      # fully connected
_POOL = 5        # pooling / LRN windows
_ELEMWISE = 6    # bn, activations, add, multiply, pad — bandwidth bound
_N_CLASSES = 7

#: Achievable fraction of peak compute per efficiency class, per device kind.
#: GPUs lose badly on depthwise/grouped convolutions (poor tensor-core /
#: SM occupancy); CPUs degrade more gently.
_COMPUTE_EFF = {
    "gpu": np.array([0.62, 0.50, 0.42, 0.18, 0.42, 0.25, 0.08]),
    "cpu": np.array([0.80, 0.70, 0.58, 0.35, 0.72, 0.35, 0.12]),
}

#: Achievable fraction of peak bandwidth per efficiency class.
_BANDWIDTH_EFF = {
    "gpu": np.array([0.85, 0.85, 0.70, 0.65, 0.80, 0.75, 0.90]),
    "cpu": np.array([0.80, 0.80, 0.70, 0.65, 0.80, 0.70, 0.85]),
}


def _classify(cost: LayerCost) -> int:
    if cost.is_conv:
        if cost.is_depthwise:
            return _CONV_DW
        if cost.conv_groups > 1:
            return _CONV_GROUP
        if cost.is_pointwise:
            return _CONV_1X1
        return _CONV
    if cost.layer_type in (
        "Linear",
        "FusedLinear",  # still one GEMM; the epilogue rides in its kernel
        "TokenLinear",
        "ScaledDotProductAttention",
    ):
        return _LINEAR
    if cost.layer_type in (
        "MaxPool2d",
        "AvgPool2d",
        "AdaptiveAvgPool2d",
        "GlobalAvgPool2d",
        "LocalResponseNorm",
    ):
        return _POOL
    return _ELEMWISE


@dataclass(frozen=True)
class CostProfile:
    """Flat per-layer cost arrays for one graph (per-sample quantities)."""

    graph_name: str
    flops: np.ndarray         # float64[L]
    act_bytes: np.ndarray     # float64[L]: (inputs + outputs) · 4, per sample
    weight_bytes: np.ndarray  # float64[L]
    eff_class: np.ndarray     # int64[L]
    has_params: np.ndarray    # bool[L]
    param_counts: np.ndarray  # float64[L]
    input_elems: np.ndarray   # float64[L]: per-sample input tensor sizes
    output_elems: np.ndarray  # float64[L]: per-sample activation footprint
    is_conv: np.ndarray       # bool[L]
    #: Graph node names / layer types, aligned with the cost arrays — the
    #: labels the tracing layer puts on per-layer spans.  Empty tuples on
    #: profiles built before these fields existed; span emission falls
    #: back to positional names.
    layer_names: tuple[str, ...] = ()
    layer_types: tuple[str, ...] = ()

    @property
    def n_layers(self) -> int:
        return int(self.flops.shape[0])

    @property
    def total_params(self) -> float:
        return float(self.param_counts.sum())

    @property
    def parametric_layers(self) -> int:
        return int(self.has_params.sum())

    # ConvMeter metric vector (per sample, batch size one) -----------------

    @property
    def total_flops(self) -> float:
        """Paper metric F: FLOPs over all layers."""
        return float(self.flops.sum())

    @property
    def conv_input_elems(self) -> float:
        """Paper metric I: summed input tensor sizes of conv layers."""
        return float(self.input_elems[self.is_conv].sum())

    @property
    def conv_output_elems(self) -> float:
        """Paper metric O: summed output tensor sizes of conv layers."""
        return float(self.output_elems[self.is_conv].sum())

    @staticmethod
    def from_costs(graph_name: str, costs: list[LayerCost]) -> "CostProfile":
        return CostProfile(
            graph_name=graph_name,
            flops=np.array([c.flops for c in costs], dtype=np.float64),
            act_bytes=np.array(
                [c.input_bytes + c.output_bytes for c in costs], dtype=np.float64
            ),
            weight_bytes=np.array(
                [c.weight_bytes for c in costs], dtype=np.float64
            ),
            eff_class=np.array([_classify(c) for c in costs], dtype=np.int64),
            has_params=np.array([c.params > 0 for c in costs], dtype=bool),
            param_counts=np.array([c.params for c in costs], dtype=np.float64),
            input_elems=np.array(
                [c.input_elems for c in costs], dtype=np.float64
            ),
            output_elems=np.array(
                [c.output_elems for c in costs], dtype=np.float64
            ),
            is_conv=np.array([c.is_conv for c in costs], dtype=bool),
            layer_names=tuple(c.name for c in costs),
            layer_types=tuple(c.layer_type for c in costs),
        )

    def span_names(self) -> tuple[str, ...]:
        """Per-layer span labels; positional fallbacks for old profiles."""
        if len(self.layer_names) == self.n_layers:
            return self.layer_names
        return tuple(f"layer[{i}]" for i in range(self.n_layers))


def profile_graph(
    graph: ComputeGraph, pipeline: "PassPipeline | None" = None
) -> CostProfile:
    """Compile a graph into a :class:`CostProfile`.

    With a ``pipeline`` (see :mod:`repro.graph.passes`), the graph is
    transformed first and the *optimized* graph is costed — the fused
    layer names flow into :meth:`CostProfile.span_names`, so traces show
    ``conv+bn+relu``-style spans.  The graph's name is preserved across
    transformation, keeping noise seeding (which keys on the name)
    comparable between raw and fused measurements of the same model.
    """
    if pipeline is not None:
        graph = pipeline.run(graph).graph
    return CostProfile.from_costs(graph.name, graph_costs(graph))


def layer_times(
    profile: CostProfile,
    batch: int | np.ndarray,
    device: DeviceSpec,
    flops_factor: float = 1.0,
    bytes_factor: float = 1.0,
) -> np.ndarray:
    """Noise-free per-layer execution times for one device, seconds.

    ``flops_factor``/``bytes_factor`` scale the per-layer work — the backward
    pass reuses the same profile with roughly doubled factors.

    ``batch`` may also be an integer array of shape ``(B,)``: the result is
    then ``float64[B, L]``, and row ``i`` is bit-identical to the scalar
    call at ``batch[i]`` — the batch axis enters only as a broadcast
    leading dimension, every per-layer expression keeps the same operand
    order and dtype as the scalar path.
    """
    b = np.asarray(batch)
    if b.ndim:
        if np.any(b < 1):
            raise ValueError(
                f"batch must be >= 1, got {int(b.min())}"
            )
        scale = b[:, None]
    else:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        scale = batch
    flops = profile.flops * (scale * flops_factor)
    nbytes = (
        profile.act_bytes * (scale * bytes_factor) + profile.weight_bytes
    )
    eff_c = _COMPUTE_EFF[device.kind][profile.eff_class]
    eff_b = _BANDWIDTH_EFF[device.kind][profile.eff_class]
    # Roofline with an additive occupancy-ramp penalty: small kernels pay a
    # fixed warm-up cost (at half of nominal peak) before reaching steady
    # state, independent of the layer's achievable efficiency class.
    ramp_c = device.sat_flops / (0.5 * device.peak_flops)
    ramp_b = device.sat_bytes / (0.5 * device.mem_bandwidth)
    compute_t = np.where(
        flops > 0, flops / (device.peak_flops * eff_c) + ramp_c, 0.0
    )
    memory_t = np.where(
        nbytes > 0, nbytes / (device.mem_bandwidth * eff_b) + ramp_b, 0.0
    )
    return np.maximum(compute_t, memory_t) + device.launch_overhead


@dataclass(frozen=True)
class GraphRecord:
    """Everything read off one costed graph, derived from one cost walk.

    Holds neither the graph nor its ``LayerCost`` list: a campaign keeps
    hundreds of records alive, and those would several-fold its memory.
    """

    profile: CostProfile
    summary: CostSummary
    features: "ConvNetFeatures"

    @staticmethod
    def of(graph: ComputeGraph) -> "GraphRecord":
        # Imported lazily: repro.benchdata imports this module.
        from repro.benchdata.records import ConvNetFeatures

        profile = profile_graph(graph)
        # Exact sums: every per-layer count is an integer far below 2**53.
        summary = CostSummary(
            flops=int(profile.total_flops),
            conv_input_elems=int(profile.conv_input_elems),
            conv_output_elems=int(profile.conv_output_elems),
            weights=graph.parameter_count(),
            layers=graph.parametric_layer_count(),
            total_output_elems=int(profile.output_elems.sum()),
        )
        features = ConvNetFeatures.from_profile(profile)
        return GraphRecord(profile, summary, features)


#: The one per-graph cache, bounded (a full sweep touches ≈ 100 graphs,
#: at most doubled by a fused variant) and observable, so campaigns report
#: the hit rate they achieved.  Keyed by ``(kind, name, image_size,
#: pipeline fingerprint)``; ``""`` marks the raw, untransformed graph.
GRAPH_RECORD_CACHE: LRUCache[tuple[str, str, int, str], GraphRecord] = (
    LRUCache(maxsize=512)
)


def build_graph(kind: str, name: str, image_size: int) -> ComputeGraph:
    """A zoo model (``kind="model"``) or Table 2 block (``"block"``)."""
    if kind == "block":
        from repro.zoo.blocks import BLOCK_CATALOGUE, build_block

        for spec in BLOCK_CATALOGUE:
            if spec.name == name:
                return build_block(spec, image_size)
        raise KeyError(f"unknown block {name!r}")
    from repro.zoo import build_model

    return build_model(name, image_size)


def graph_record(
    kind: str,
    name: str,
    image_size: int,
    pipeline: "PassPipeline | None" = None,
    graph: ComputeGraph | None = None,
) -> GraphRecord:
    """Cached record of a zoo graph, optionally transformed by ``pipeline``.

    ``graph`` is the caller's already-built raw graph for this key, so
    verification, which needs the graph itself, builds it only once.
    """
    fingerprint = "" if pipeline is None else pipeline.fingerprint()

    def build() -> GraphRecord:
        g = graph if graph is not None else build_graph(kind, name, image_size)
        if pipeline is not None:
            g = pipeline.run(g).graph
        return GraphRecord.of(g)

    return GRAPH_RECORD_CACHE.get_or_compute(
        (kind, name, image_size, fingerprint), build
    )


def zoo_profile(
    model: str,
    image_size: int,
    pipeline: "PassPipeline | None" = None,
) -> CostProfile:
    """Cached profile of a zoo model — the campaign's workhorse lookup."""
    return graph_record("model", model, image_size, pipeline).profile
