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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.caching import LRUCache
from repro.graph.graph import ComputeGraph, Topology
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
    #: labels the tracing layer puts on per-layer spans.
    layer_names: tuple[str, ...]
    layer_types: tuple[str, ...]

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
    def from_costs(
        names: Sequence[str], costs: list[LayerCost]
    ) -> tuple["CostProfile", ...]:
        """One profile per image of the costs' axis, ``names[i]`` naming
        image ``i``'s graph; plain-``int`` costs give one image."""
        n = len(names)

        def column(values) -> np.ndarray:
            # int64[L, images]: a plain count is the same at every image.
            out = np.empty((len(costs), n), dtype=np.int64)
            for k, value in enumerate(values):
                out[k] = value
            return out

        flops = column(c.flops for c in costs)
        inputs = column(c.input_elems for c in costs)
        outputs = column(c.output_elems for c in costs)
        params = column(c.params for c in costs)
        act_bytes = 4 * inputs + 4 * outputs
        eff_class = np.array([_classify(c) for c in costs], dtype=np.int64)
        is_conv = np.array([c.is_conv for c in costs], dtype=bool)
        layer_names = tuple(c.name for c in costs)
        layer_types = tuple(c.layer_type for c in costs)
        return tuple(
            CostProfile(
                graph_name=name,
                flops=flops[:, i].astype(np.float64),
                act_bytes=act_bytes[:, i].astype(np.float64),
                weight_bytes=(4 * params[:, i]).astype(np.float64),
                eff_class=eff_class,
                has_params=params[:, i] > 0,
                param_counts=params[:, i].astype(np.float64),
                input_elems=inputs[:, i].astype(np.float64),
                output_elems=outputs[:, i].astype(np.float64),
                is_conv=is_conv,
                layer_names=layer_names,
                layer_types=layer_types,
            )
            for i, name in enumerate(names)
        )

    @staticmethod
    def stack(profiles: Sequence["CostProfile"]) -> "CostProfile":
        """Profiles of one topology's images (one layer list) as one
        profile whose per-layer arrays are ``[images, 1, L]``.

        The middle axis is where a column of batch sizes broadcasts, so
        :func:`layer_times` and the backend's ``phase_work`` evaluate
        images × batches × layers at once; every element is the same
        expression on the same operands as for the image's own profile.
        Named after the first image's graph.
        """
        first = profiles[0]

        def column(name: str) -> np.ndarray:
            return np.stack([getattr(p, name) for p in profiles])[:, None]

        return CostProfile(
            graph_name=first.graph_name,
            flops=column("flops"),
            act_bytes=column("act_bytes"),
            weight_bytes=column("weight_bytes"),
            eff_class=column("eff_class"),
            has_params=column("has_params"),
            param_counts=column("param_counts"),
            input_elems=column("input_elems"),
            output_elems=column("output_elems"),
            is_conv=column("is_conv"),
            layer_names=first.layer_names,
            layer_types=first.layer_types,
        )


def profile_graph(
    graph: ComputeGraph | Topology,
) -> CostProfile | tuple[CostProfile, ...]:
    """Compile a graph into a :class:`CostProfile`.

    A :class:`~repro.graph.graph.Topology` gives one profile per image of
    its axis, from one cost walk; a plain graph is the one-image case of
    the same code.  To cost the *optimized* graph, rewrite it first
    (:meth:`~repro.graph.graph.Topology.rewritten`): the fused layer names
    then flow into :attr:`CostProfile.layer_names`, so traces show
    ``conv+bn+relu``-style spans, and the passes keep the graph's name, on
    which noise seeding keys.
    """
    topology = graph if isinstance(graph, Topology) else Topology.of(graph)
    profiles = CostProfile.from_costs(
        topology.names, graph_costs(topology.graph)
    )
    return profiles if isinstance(graph, Topology) else profiles[0]


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
    order and dtype as the scalar path.  For a :meth:`CostProfile.stack`
    the result is ``float64[images, B, L]``, each image's ``[B, L]`` equal
    to its own profile's.
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
    #: The image sizes costed in the same walk (its topology's axis, in
    #: order); ``()`` when unknown.  A campaign measures them as one block.
    axis: tuple[int, ...] = ()

    @staticmethod
    def of(profile: CostProfile) -> "GraphRecord":
        # Imported lazily: repro.benchdata imports this module.
        from repro.benchdata.records import ConvNetFeatures

        # Exact sums: every per-layer count is an integer far below 2**53.
        summary = CostSummary(
            flops=int(profile.total_flops),
            conv_input_elems=int(profile.conv_input_elems),
            conv_output_elems=int(profile.conv_output_elems),
            weights=int(profile.total_params),
            layers=profile.parametric_layers,
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


def build_topology(name: str, images: Sequence[int]) -> Topology | None:
    """Zoo model ``name`` built once over square ``images``
    (:func:`~repro.zoo.build_model` with the whole axis): the topology
    whose names are ``<name>_<image>``, in axis order.

    An image the model cannot be built at raises ``ValueError``.  ``None``
    when the builder itself raises ``ValueError`` or ``TypeError`` on the
    axis column (it branches on a concrete image size), so each image must
    be built and costed on its own.
    """
    from repro.zoo import build_model
    from repro.zoo.registry import check_image_size

    for image in images:
        check_image_size(name, image)
    try:
        graph = build_model(name, images)
    except (ValueError, TypeError):
        return None
    return Topology(graph, tuple(f"{name}_{i}" for i in images))


def topologies(
    kind: str, name: str, images: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], Topology]]:
    """Raw topologies of a zoo model (``kind="model"``) or Table 2 block
    (``"block"``), as ``(images, topology)`` pairs covering ``images`` in
    order.

    One pair covers them all when one build can stand for every image
    (:func:`build_topology`); a block is cut from its parent model's
    topology and named ``<graph>/<scope>``.  Otherwise, and for a single
    image, each image is the one-image topology of its own build.
    """
    from repro.zoo import build_model
    from repro.zoo.blocks import block_by_name, build_block

    images = tuple(images)
    block = block_by_name(name) if kind == "block" else None
    topology = None
    if len(images) > 1:
        topology = build_topology(block.model if block else name, images)
    if topology is None:
        for image in images:
            graph = (
                build_block(block, image) if block else build_model(name, image)
            )
            yield (image,), Topology.of(graph)
    elif block is None:
        yield images, topology
    else:
        yield images, Topology(
            topology.graph.block_subgraph(block.scope),
            tuple(f"{n}/{block.scope}" for n in topology.names),
        )


def topology_records(
    kind: str,
    name: str,
    images: Sequence[int],
    topology: Topology,
    pipeline: "PassPipeline | None" = None,
) -> tuple[GraphRecord, ...]:
    """Records of ``name`` at ``images``, costed in one walk of
    ``topology`` over them: the raw topology from :func:`topologies`,
    already rewritten by ``pipeline`` when one is given.  ``pipeline``
    only names the records.

    Each is left in :data:`GRAPH_RECORD_CACHE` under its
    :func:`graph_record` key; a record already cached there is kept and
    returned instead, so a campaign verifies and measures the same record.
    """
    images = tuple(images)
    return tuple(
        GRAPH_RECORD_CACHE.add(
            _record_key(kind, name, image, pipeline),
            replace(GraphRecord.of(profile), axis=images),
        )
        for image, profile in zip(images, profile_graph(topology))
    )


def _record_key(
    kind: str, name: str, image_size: int, pipeline: "PassPipeline | None"
) -> tuple[str, str, int, str]:
    fingerprint = "" if pipeline is None else pipeline.fingerprint()
    return kind, name, image_size, fingerprint


def graph_record(
    kind: str,
    name: str,
    image_size: int,
    pipeline: "PassPipeline | None" = None,
    graph: ComputeGraph | None = None,
    images: Sequence[int] = (),
) -> GraphRecord:
    """Cached record of a zoo model (``kind="model"``) or Table 2 block
    (``"block"``), optionally transformed by ``pipeline``.

    ``images`` are the sizes a campaign sweeps ``name`` at (``image_size``
    among them): a miss rewrites its raw topology by ``pipeline`` once and
    costs every image the topology covers in one walk (:func:`topologies`,
    :func:`topology_records`), caching each record.
    ``graph`` is the caller's already-built raw graph for this key, costed
    as its one-image topology.
    """

    def build() -> GraphRecord:
        pairs = (
            [((image_size,), Topology.of(graph))]
            if graph is not None
            else topologies(kind, name, tuple(images) or (image_size,))
        )
        for covered, topology in pairs:
            if image_size in covered:
                if pipeline is not None:
                    topology = topology.rewritten(pipeline)
                records = topology_records(
                    kind, name, covered, topology, pipeline
                )
                return records[covered.index(image_size)]
        raise ValueError(f"image {image_size} is not among {tuple(images)}")

    return GRAPH_RECORD_CACHE.get_or_compute(
        _record_key(kind, name, image_size, pipeline), build
    )


def zoo_profile(
    model: str,
    image_size: int,
    pipeline: "PassPipeline | None" = None,
) -> CostProfile:
    """Cached profile of a zoo model — the campaign's workhorse lookup."""
    return graph_record("model", model, image_size, pipeline).profile
