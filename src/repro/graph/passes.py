"""Deterministic graph transformation passes.

Every deployed inference stack rewrites a ConvNet's graph before running it
— folding BatchNorm into the preceding convolution and fusing elementwise
activations into the producing kernel — so the graph a profiler should cost
is the *optimized* one, not the one the model builder emitted.  This module
is the seam between construction and costing: a small pass framework
(:class:`Pass` protocol, :class:`PassPipeline`) plus the four rewrites the
fused-inference workload needs.

Design rules, in force for every pass:

* **Pure and deterministic.**  A pass never mutates its input graph; it
  rebuilds a new :class:`~repro.graph.graph.ComputeGraph` by walking
  :meth:`~repro.graph.graph.ComputeGraph.topological_order`.  Running a
  pipeline twice yields structurally identical graphs (idempotence is
  asserted by the equivalence test suite).
* **Conservation-accounted.**  Rewrites that merge layers use the
  :class:`~repro.graph.layers.FusedConv2d` / ``FusedLinear`` layer types,
  whose accounting keeps the paper's Weights metric and the convolution
  FLOPs exactly conserved — the invariant
  :func:`repro.analysis.verify.verify_transform` checks.
* **Fingerprinted.**  A pipeline has a stable content fingerprint over its
  pass names and configurations, used as part of the profile cache key in
  :func:`repro.hardware.roofline.zoo_profile` so fused and raw profiles
  never collide.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar, Iterable, Protocol, Sequence, runtime_checkable

from repro.graph.graph import ComputeGraph, Node
from repro.graph.layers import (
    Activation,
    BatchNorm2d,
    Conv2d,
    FusedConv2d,
    FusedLinear,
    Linear,
)

#: Activation kinds cheap enough for real frameworks to absorb into the
#: producing kernel's epilogue (cuDNN/oneDNN fuse exactly these clamp-style
#: kinds; transcendental activations stay separate kernels).
FUSABLE_ACTIVATIONS = frozenset({"relu", "relu6", "hardswish"})


@runtime_checkable
class Pass(Protocol):
    """Structural interface of one graph rewrite."""

    name: ClassVar[str]

    def run(self, graph: ComputeGraph) -> "tuple[ComputeGraph, PassResult]":
        """Return the rewritten graph and what changed; never mutate."""
        ...  # pragma: no cover - protocol body

    def signature(self) -> dict:
        """JSON-serialisable configuration, hashed into the fingerprint."""
        ...  # pragma: no cover - protocol body


@dataclass(frozen=True)
class PassResult:
    """What one pass did to one graph."""

    #: Registry name of the pass that produced this result.
    pass_name: str
    #: Number of rewrites applied (0 means the pass was a no-op).
    changed: int
    #: Node count before and after — dead-code elimination shrinks, fusion
    #: merges, canonicalisation keeps the count.
    nodes_before: int
    nodes_after: int
    #: New node name -> the names it was built from in the pass's *input*
    #: graph.  Only non-trivial entries (renames and merges) are recorded.
    mapping: dict[str, tuple[str, ...]] = dataclasses.field(
        default_factory=dict
    )
    #: Nodes dropped without a successor in the output graph.
    removed: tuple[str, ...] = ()


@dataclass(frozen=True)
class PipelineResult:
    """A transformed graph plus the full provenance of the rewrite."""

    graph: ComputeGraph
    results: tuple[PassResult, ...]
    #: Final node name -> constituent node names of the *original* graph,
    #: for every surviving node (identity entries included).
    origin: dict[str, tuple[str, ...]]

    @property
    def n_changed(self) -> int:
        return sum(r.changed for r in self.results)

    def renames(self) -> dict[str, tuple[str, ...]]:
        """Only the nodes whose provenance is non-trivial — the folded/fused
        layer mapping ``repro transform --diff`` prints."""
        return {
            new: parts
            for new, parts in self.origin.items()
            if parts != (new,)
        }

    def removed(self) -> tuple[str, ...]:
        """All nodes dropped outright, across every pass."""
        return tuple(name for r in self.results for name in r.removed)


class GraphPass:
    """Convenience base class implementing the :class:`Pass` protocol.

    Concrete passes are frozen dataclasses subclassing this, so their
    configuration is hashable, comparable, and feeds ``signature()``
    automatically.
    """

    name: ClassVar[str] = ""

    def run(self, graph: ComputeGraph) -> tuple[ComputeGraph, PassResult]:
        raise NotImplementedError

    def signature(self) -> dict:
        cfg = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)  # type: ignore[arg-type]
            if f.init
        } if dataclasses.is_dataclass(self) else {}
        return {"pass": self.name, **cfg}


def _fused_variant(
    layer: Conv2d | Linear, **updates: object
) -> FusedConv2d | FusedLinear:
    """The fused counterpart of ``layer`` with ``updates`` applied."""
    if isinstance(layer, (FusedConv2d, FusedLinear)):
        return dataclasses.replace(layer, **updates)
    base = FusedConv2d if isinstance(layer, Conv2d) else FusedLinear
    proto = Conv2d if isinstance(layer, Conv2d) else Linear
    fields = {
        f.name: getattr(layer, f.name)
        for f in dataclasses.fields(proto)
        if f.init
    }
    fields.update(updates)
    return base(**fields)  # type: ignore[arg-type]


def _copy(
    out: ComputeGraph, node: Node, renamed: dict[str, str]
) -> None:
    out.add_node(
        Node(
            renamed.get(node.name, node.name),
            node.layer,
            tuple(renamed.get(p, p) for p in node.inputs),
            node.output_shape,
            node.block,
        )
    )


# -- concrete passes ----------------------------------------------------------


@dataclass(frozen=True)
class CanonicalizeShapes(GraphPass):
    """Re-infer every stored shape and normalise node names.

    Zoo-built graphs are already canonical (the builder derives shapes from
    ``Layer.infer_shape`` and emits clean names), so on those this pass is a
    verified no-op; hand-built or deserialised graphs get their stored
    shapes re-derived and names stripped of whitespace and path separators
    before any structural pass pattern-matches on them.
    """

    name: ClassVar[str] = "canonicalize-shapes"

    @staticmethod
    def _canonical(name: str) -> str:
        return name.strip().replace(" ", "_").replace("/", ".")

    def run(self, graph: ComputeGraph) -> tuple[ComputeGraph, PassResult]:
        out = ComputeGraph(graph.name)
        renamed: dict[str, str] = {}
        mapping: dict[str, tuple[str, ...]] = {}
        changed = 0
        for node in graph.topological_order():
            new_name = self._canonical(node.name)
            if new_name != node.name:
                renamed[node.name] = new_name
                mapping[new_name] = (node.name,)
            inputs = tuple(renamed.get(p, p) for p in node.inputs)
            shape = node.layer.infer_shape(
                [out.node(p).output_shape for p in inputs]
            )
            if new_name != node.name or shape != node.output_shape:
                changed += 1
            out.add_node(Node(new_name, node.layer, inputs, shape, node.block))
        return out, PassResult(
            self.name, changed, len(graph), len(out), mapping
        )


@dataclass(frozen=True)
class FoldBatchNorm(GraphPass):
    """Fold inference-mode BatchNorm into the preceding conv/linear layer.

    Matches ``conv -> bn`` (or ``linear -> bn``) where the BatchNorm is the
    producer's *only* consumer, replaces the pair with one
    :class:`~repro.graph.layers.FusedConv2d` / ``FusedLinear`` named
    ``conv_name+bn_name``, and rewires the BatchNorm's consumers onto the
    fused node.  The BatchNorm's elementwise FLOPs disappear (its scale and
    shift are baked into the kernel); its 2·C parameters remain accounted on
    the fused layer, keeping the Weights metric conserved.
    """

    name: ClassVar[str] = "fold-batchnorm"

    @staticmethod
    def _foldable(graph: ComputeGraph, bn: Node) -> Node | None:
        if not isinstance(bn.layer, BatchNorm2d) or len(bn.inputs) != 1:
            return None
        producer = graph.node(bn.inputs[0])
        layer = producer.layer
        if not isinstance(layer, (Conv2d, Linear)):
            return None
        # A layer that already folded a norm, or already applies an
        # activation epilogue, cannot absorb another norm: the affine would
        # land on the wrong side of the nonlinearity.
        if getattr(layer, "bn_features", 0) or getattr(layer, "activation", ""):
            return None
        if len(graph.successors(producer.name)) != 1:
            return None
        return producer

    def run(self, graph: ComputeGraph) -> tuple[ComputeGraph, PassResult]:
        folds: dict[str, Node] = {}  # conv/linear name -> its folded BN node
        for node in graph.topological_order():
            producer = self._foldable(graph, node)
            if producer is not None:
                folds[producer.name] = node
        out = ComputeGraph(graph.name)
        renamed: dict[str, str] = {}
        mapping: dict[str, tuple[str, ...]] = {}
        for node in graph.topological_order():
            if node.name in folds:
                bn = folds[node.name]
                fused_name = f"{node.name}+{bn.name}"
                layer = _fused_variant(
                    node.layer, bn_features=bn.layer.num_features
                )
                out.add_node(
                    Node(
                        fused_name,
                        layer,
                        tuple(renamed.get(p, p) for p in node.inputs),
                        node.output_shape,
                        node.block,
                    )
                )
                renamed[node.name] = fused_name
                renamed[bn.name] = fused_name
                mapping[fused_name] = (node.name, bn.name)
            elif node.name in renamed:
                continue  # a BN absorbed above; consumers follow `renamed`
            else:
                _copy(out, node, renamed)
        return out, PassResult(
            self.name, len(folds), len(graph), len(out), mapping
        )


@dataclass(frozen=True)
class FuseConvActivation(GraphPass):
    """Absorb cheap activations into the producing conv/linear kernel.

    Matches ``conv -> act`` where the activation kind is in
    :data:`FUSABLE_ACTIVATIONS`, the conv is the activation's only input and
    the activation its only consumer, and the producer has no epilogue yet.
    The standalone activation node disappears, which removes its tensor
    round-trip (two activations-worth of memory traffic) from the cost
    model; the clamp arithmetic itself stays on the fused layer's FLOPs.
    Runs after :class:`FoldBatchNorm`, so ``conv -> bn -> relu`` chains end
    as one ``conv+bn+relu`` node — the span name the tracer emits.
    """

    name: ClassVar[str] = "fuse-conv-activation"

    @staticmethod
    def _fusable(graph: ComputeGraph, act: Node) -> Node | None:
        if not isinstance(act.layer, Activation):
            return None
        if act.layer.kind not in FUSABLE_ACTIVATIONS or len(act.inputs) != 1:
            return None
        producer = graph.node(act.inputs[0])
        layer = producer.layer
        if not isinstance(layer, (Conv2d, Linear)):
            return None
        if getattr(layer, "activation", ""):
            return None  # one epilogue per kernel
        if len(graph.successors(producer.name)) != 1:
            return None
        return producer

    def run(self, graph: ComputeGraph) -> tuple[ComputeGraph, PassResult]:
        fuses: dict[str, Node] = {}  # producer name -> its absorbed act node
        for node in graph.topological_order():
            producer = self._fusable(graph, node)
            if producer is not None:
                fuses[producer.name] = node
        out = ComputeGraph(graph.name)
        renamed: dict[str, str] = {}
        mapping: dict[str, tuple[str, ...]] = {}
        for node in graph.topological_order():
            if node.name in fuses:
                act = fuses[node.name]
                fused_name = f"{node.name}+{act.name}"
                layer = _fused_variant(node.layer, activation=act.layer.kind)
                out.add_node(
                    Node(
                        fused_name,
                        layer,
                        tuple(renamed.get(p, p) for p in node.inputs),
                        node.output_shape,
                        node.block,
                    )
                )
                renamed[node.name] = fused_name
                renamed[act.name] = fused_name
                mapping[fused_name] = (node.name, act.name)
            elif node.name in renamed:
                continue  # an absorbed activation; consumers follow `renamed`
            else:
                _copy(out, node, renamed)
        return out, PassResult(
            self.name, len(fuses), len(graph), len(out), mapping
        )


@dataclass(frozen=True)
class EliminateDeadLayers(GraphPass):
    """Drop every node the graph sink does not transitively read.

    Reuses the verifier's reachability walk
    (:meth:`~repro.graph.graph.ComputeGraph.reachable_from_sink`): whatever
    IR002 would flag as dead weight — including dangling ``Input``
    placeholders — is removed, so the costed graph contains exactly the
    work the forward pass performs.
    """

    name: ClassVar[str] = "eliminate-dead-layers"

    def run(self, graph: ComputeGraph) -> tuple[ComputeGraph, PassResult]:
        reachable = graph.reachable_from_sink()
        out = ComputeGraph(graph.name)
        removed: list[str] = []
        for node in graph.topological_order():
            if node.name in reachable:
                _copy(out, node, {})
            else:
                removed.append(node.name)
        return out, PassResult(
            self.name, len(removed), len(graph), len(out),
            removed=tuple(removed),
        )


# -- pipeline -----------------------------------------------------------------


@dataclass(frozen=True)
class PassPipeline:
    """An ordered, named sequence of passes with a content fingerprint."""

    passes: tuple[Pass, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        if not self.passes:
            raise ValueError("a PassPipeline needs at least one pass")

    def run(self, graph: ComputeGraph) -> PipelineResult:
        """Apply every pass in order, threading provenance through."""
        origin: dict[str, tuple[str, ...]] = {
            node.name: (node.name,) for node in graph
        }
        results: list[PassResult] = []
        for p in self.passes:
            graph, result = p.run(graph)
            results.append(result)
            origin = {
                node.name: tuple(
                    part
                    for prev in result.mapping.get(node.name, (node.name,))
                    for part in origin[prev]
                )
                for node in graph
            }
        return PipelineResult(graph, tuple(results), origin)

    def fingerprint(self) -> str:
        """Stable content hash over pass names and configurations.

        Two pipelines that would rewrite any graph identically share a
        fingerprint; reordering, adding, or reconfiguring passes changes
        it.  Used as the cache-key component that separates fused from raw
        profiles.  Computed once per pipeline instance: the dataclass is
        frozen, so the signature blob can never change after construction.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            blob = json.dumps(
                [p.signature() for p in self.passes], sort_keys=True
            ).encode()
            cached = hashlib.blake2b(blob, digest_size=8).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


#: Constructors of every registered pass, keyed by registry name — the
#: vocabulary of ``repro transform --passes`` and of
#: :class:`~repro.benchdata.engine.CampaignSpec` transform strings.
PASS_REGISTRY: dict[str, type] = {
    CanonicalizeShapes.name: CanonicalizeShapes,
    FoldBatchNorm.name: FoldBatchNorm,
    FuseConvActivation.name: FuseConvActivation,
    EliminateDeadLayers.name: EliminateDeadLayers,
}

#: The default inference-mode rewrite, in dependency order: canonicalise
#: first so structural passes match on clean graphs, fold norms before
#: fusing activations so ``conv -> bn -> relu`` collapses fully, sweep dead
#: code last.
DEFAULT_INFERENCE_PASSES: tuple[str, ...] = (
    CanonicalizeShapes.name,
    FoldBatchNorm.name,
    FuseConvActivation.name,
    EliminateDeadLayers.name,
)


def build_pipeline(
    names: Iterable[str], name: str = "custom"
) -> PassPipeline:
    """A pipeline of registered passes, in the order given."""
    passes = []
    for pass_name in names:
        if pass_name not in PASS_REGISTRY:
            raise KeyError(
                f"unknown pass {pass_name!r}; one of "
                f"{sorted(PASS_REGISTRY)}"
            )
        passes.append(PASS_REGISTRY[pass_name]())
    return PassPipeline(tuple(passes), name=name)


def default_inference_pipeline() -> PassPipeline:
    """The pipeline ``--fuse`` flags and ``transform="inference"`` apply."""
    return build_pipeline(DEFAULT_INFERENCE_PASSES, name="inference")


#: The pipeline ``transform="inference"`` resolves to, built once: it is
#: frozen and its passes are pure, so every caller can share it.
_INFERENCE_PIPELINE = default_inference_pipeline()


def resolve_transform(spec: str) -> PassPipeline | None:
    """Resolve a campaign/CLI transform string into a pipeline.

    ``""`` means no transform (``None``); ``"inference"`` is the shared
    :data:`_INFERENCE_PIPELINE`; anything else is a comma-separated list of
    registered pass names, built into a fresh pipeline.  The string form is
    what :class:`~repro.benchdata.engine.CampaignSpec` carries, keeping
    specs JSON-serialisable and worker-picklable.
    """
    if not spec:
        return None
    if spec == "inference":
        return _INFERENCE_PIPELINE
    return build_pipeline([s.strip() for s in spec.split(",") if s.strip()])


__all__ = [
    "FUSABLE_ACTIVATIONS",
    "Pass",
    "PassResult",
    "PipelineResult",
    "GraphPass",
    "CanonicalizeShapes",
    "FoldBatchNorm",
    "FuseConvActivation",
    "EliminateDeadLayers",
    "PassPipeline",
    "PASS_REGISTRY",
    "DEFAULT_INFERENCE_PASSES",
    "build_pipeline",
    "default_inference_pipeline",
    "resolve_transform",
]
