"""The IR verification rules.

Each rule is a pure function registered in :data:`IR_RULES`.  Rules
re-derive every property they check from the layer definitions themselves
rather than trusting the values the graph (or a cached profile) stores —
the point of the verifier is to catch exactly the case where stored and
recomputed numbers diverge.

A model's graphs at all image sizes are one topology, so the verifier
takes a :class:`~repro.graph.graph.Topology` — shapes over an image axis —
as well as a single graph.  The rules that read only layers, parameters
and wiring (IR002, IR003, IR005, IR007) run once per topology and report
at every image; the rest (``per_image``) run over the axis.  Either way a
finding reads exactly as verifying the graph built at that image would.

Rule ids are stable API (tests, suppression lists, and CI grep for them):

========  =========  ====================================================
id        severity   checks
========  =========  ====================================================
IR001     ERROR      stored output shapes match re-run shape inference
IR002     ERROR/WARN dead layers (unconsumed non-sink nodes); dangling
                     ``Input`` placeholders are WARN
IR003     ERROR      node order is topological: every edge points backward
                     in insertion order (a forward edge is how a cycle
                     manifests in this IR), no duplicate/unknown names
IR004     ERROR      metric accounting: graph-level F/I/O/W/L equal the
                     sum of independently recomputed per-layer values
IR005     ERROR/WARN parameter sanity: positive dims, valid dropout p,
                     group divisibility; stride>kernel without padding
                     (skipped pixels) is WARN
IR006     ERROR      batch scaling: F/I/O/activations linear in batch,
                     Weights/Layers batch-invariant
IR007     INFO       unfused BatchNorm present in an inference-profiled
                     graph (the fusion pipeline would fold it)
IR008     ERROR      transform preservation: parameter count and conv
                     FLOPs conserved, output shape identical across a
                     pass pipeline (:func:`verify_transform`)
IR009     INFO       edge-memory advisory: training the graph at the
                     campaign's smallest batch exceeds every registered
                     edge-GPU preset's usable memory (an ``--backend
                     edge`` campaign would record only OOM points)
========  =========  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.graph.graph import ComputeGraph, Node, Topology, shape_mismatches
from repro.graph.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    FusedConv2d,
    Input,
    Linear,
    MaxPool2d,
)
from repro.graph.metrics import CostSummary, summarize_costs
from repro.graph.tensor import at_image

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.hardware.roofline import CostProfile


class GraphVerificationError(ValueError):
    """A graph failed verification with ERROR-severity diagnostics."""

    def __init__(self, diagnostics: Sequence[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity is Severity.ERROR]
        lines = "\n".join(d.render() for d in sort_diagnostics(errors))
        super().__init__(
            f"graph verification failed with {len(errors)} error(s):\n{lines}"
        )


def _loc(graph: ComputeGraph, node: Node | None = None) -> str:
    return graph.name if node is None else f"{graph.name}:{node.name}"


def _pair(v: int | tuple[int, int]) -> tuple[int, int]:
    return v if isinstance(v, tuple) else (v, v)


@dataclass(frozen=True)
class ImageAxis:
    """What the per-image rules read: a topology and, per image of its
    axis, the production metric summary and cost profile (``None`` when
    unavailable), plus the smallest batch a campaign would measure."""

    topology: Topology
    summaries: tuple[CostSummary, ...] | None
    #: Names the summaries' origin in IR004 messages.
    source: str
    profiles: "tuple[CostProfile, ...] | None"
    edge_batch: int = 1


# -- IR001: shape-inference consistency --------------------------------------


def check_shapes(axis: ImageAxis) -> Iterator[Diagnostic]:
    topology = axis.topology
    # Forward edges (IR003's finding) are skipped by shape_mismatches: they
    # make input shapes meaningless, and one defect gets one diagnostic.
    for node, i, stored, inferred in shape_mismatches(
        topology.graph, len(topology.names)
    ):
        location = f"{topology.names[i]}:{node.name}"
        if isinstance(inferred, Exception):
            yield Diagnostic(
                "IR001",
                Severity.ERROR,
                location,
                f"shape inference failed for "
                f"{type(node.layer).__name__}: {inferred}",
                hint="the layer's parameters are inconsistent with its "
                "input shapes",
            )
        else:
            yield Diagnostic(
                "IR001",
                Severity.ERROR,
                location,
                f"stored output shape {stored} does not match "
                f"re-inferred {inferred}",
                hint="rebuild the graph; stored shapes must come from "
                "Layer.infer_shape, never be hand-edited",
            )


# -- IR002: dead layers and dangling inputs ----------------------------------


def check_dead_layers(graph: ComputeGraph) -> Iterator[Diagnostic]:
    if len(graph) == 0:
        yield Diagnostic(
            "IR002", Severity.ERROR, _loc(graph), "graph has no nodes"
        )
        return
    # Transitive reachability from the sink — the same walk the
    # EliminateDeadLayers pass removes nodes by, so verifier and rewriter
    # agree on what "dead" means (a whole orphaned chain, not just its tip).
    reachable = graph.reachable_from_sink()
    for node in graph:
        if node.name in reachable:
            continue
        if isinstance(node.layer, Input):
            yield Diagnostic(
                "IR002",
                Severity.WARN,
                _loc(graph, node),
                "dangling Input placeholder: no layer consumes it",
                hint="remove the unused input or wire it into the graph",
            )
        else:
            yield Diagnostic(
                "IR002",
                Severity.ERROR,
                _loc(graph, node),
                "dead layer: output is never consumed and it is not the "
                "graph sink",
                hint="its FLOPs/Weights still count toward the metric "
                "vector, skewing every fitted coefficient; drop the edge "
                "bug or the layer",
            )


# -- IR003: topological order / cycle detection -------------------------------


def check_topology(graph: ComputeGraph) -> Iterator[Diagnostic]:
    index: dict[str, int] = {}
    for i, node in enumerate(graph):
        if node.name in index:
            yield Diagnostic(
                "IR003",
                Severity.ERROR,
                _loc(graph, node),
                f"duplicate node name {node.name!r} in topological order",
            )
        index[node.name] = i
    for i, node in enumerate(graph):
        for parent in node.inputs:
            if parent not in index:
                yield Diagnostic(
                    "IR003",
                    Severity.ERROR,
                    _loc(graph, node),
                    f"edge references unknown node {parent!r}",
                )
            elif index[parent] >= i:
                yield Diagnostic(
                    "IR003",
                    Severity.ERROR,
                    _loc(graph, node),
                    f"edge from {parent!r} points forward in the "
                    "topological order (back-edge/cycle)",
                    hint="nodes must be inserted after all of their "
                    "inputs; a cycle cannot be scheduled or costed",
                )


# -- IR004: metric-accounting invariants --------------------------------------


def _recompute_summary(graph: ComputeGraph) -> CostSummary:
    """Re-derive the metric vector straight from the layer API.

    Deliberately does *not* call :func:`repro.graph.metrics.graph_costs`:
    this loop is the independent second opinion that catches double counting
    (for example a fused block contributing its FLOPs twice) in the
    production accounting path or in a cached profile.  Over an image axis
    every field is the column of all images' values.
    """
    flops = conv_in = conv_out = weights = layers = total_out = 0
    for node in graph:
        layer = node.layer
        weights += layer.param_count()
        if layer.has_params:
            layers += 1
        if isinstance(layer, Input):
            continue
        in_shapes = graph.input_shapes(node)
        flops += layer.flops(in_shapes, node.output_shape)
        total_out += node.output_shape.numel
        if layer.is_conv:
            conv_in += sum(s.numel for s in in_shapes)
            conv_out += node.output_shape.numel
    return CostSummary(
        flops=flops,
        conv_input_elems=conv_in,
        conv_output_elems=conv_out,
        weights=weights,
        layers=layers,
        total_output_elems=total_out,
    )


_METRIC_FIELDS = (
    ("flops", "FLOPs (F)"),
    ("conv_input_elems", "Inputs (I)"),
    ("conv_output_elems", "Outputs (O)"),
    ("weights", "Weights (W)"),
    ("layers", "Layers (L)"),
    ("total_output_elems", "activation footprint"),
)


def _topology_broken(graph: ComputeGraph) -> bool:
    """True when edges reference unknown or later nodes — cost accounting
    is meaningless then, and IR003 already reports the root cause."""
    index = {n.name: i for i, n in enumerate(graph)}
    return any(
        p not in index or index[p] >= index[n.name]
        for n in graph
        for p in n.inputs
    )


def check_metric_accounting(axis: ImageAxis) -> Iterator[Diagnostic]:
    """Each image's production summary must equal independent
    recomputation; ``axis.source`` names the summary in the message."""
    topology = axis.topology
    if axis.summaries is None or _topology_broken(topology.graph):
        return
    recomputed = _recompute_summary(topology.graph)
    for i, (name, summary) in enumerate(
        zip(topology.names, axis.summaries)
    ):
        for attr, label in _METRIC_FIELDS:
            got = getattr(summary, attr)
            want = at_image(getattr(recomputed, attr), i)
            if got != want:
                yield Diagnostic(
                    "IR004",
                    Severity.ERROR,
                    name,
                    f"{label} from {axis.source} is {got}, but independent "
                    f"per-layer recomputation gives {want}",
                    hint="a layer is double-counted or dropped "
                    "(fused-block accounting is the usual culprit)",
                )


# -- IR005: parameter sanity ---------------------------------------------------


def _is_downsample_shortcut(graph: ComputeGraph, node: Node) -> bool:
    """Recognise torchvision's canonicalized residual downsample projection.

    A 1×1 stride-2 pad-0 convolution *does* skip three of every four input
    pixels — but when its sole consumer chain is ``conv [-> bn] -> add``
    (the ResNet-family shortcut branch, with the BatchNorm possibly
    already folded into the conv), that subsampling is the architecture's
    deliberate way of matching the main branch's stride.  Warning on it
    made every ResNet-family model noisy; the pattern is suppressed and
    anything else keeps the WARN.
    """
    layer = node.layer
    if not isinstance(layer, Conv2d):
        return False
    kh, kw = _pair(layer.kernel_size)
    if (kh, kw) != (1, 1):
        return False
    current = node
    for _ in range(2):  # conv -> add, or conv -> bn -> add
        successors = graph.successors(current.name)
        if len(successors) != 1:
            return False
        nxt = successors[0]
        if isinstance(nxt.layer, Add):
            return True
        if not isinstance(nxt.layer, BatchNorm2d):
            return False
        current = nxt
    return False


def _check_window(
    graph: ComputeGraph, node: Node, kernel, stride, padding, dilation: int
) -> Iterator[Diagnostic]:
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    name = type(node.layer).__name__
    if kh <= 0 or kw <= 0 or sh <= 0 or sw <= 0:
        yield Diagnostic(
            "IR005",
            Severity.ERROR,
            _loc(graph, node),
            f"{name} has non-positive kernel/stride "
            f"(kernel={kh}x{kw}, stride={sh}x{sw})",
        )
        return
    if ph < 0 or pw < 0:
        yield Diagnostic(
            "IR005",
            Severity.ERROR,
            _loc(graph, node),
            f"{name} has negative padding ({ph}, {pw})",
        )
    if dilation < 1:
        yield Diagnostic(
            "IR005",
            Severity.ERROR,
            _loc(graph, node),
            f"{name} has dilation {dilation} < 1",
        )
    if (sh > kh * dilation and ph == 0) or (sw > kw * dilation and pw == 0):
        if _is_downsample_shortcut(graph, node):
            return
        yield Diagnostic(
            "IR005",
            Severity.WARN,
            _loc(graph, node),
            f"{name} stride ({sh}x{sw}) exceeds its receptive window "
            f"({kh}x{kw}, dilation {dilation}) with no padding: input "
            "pixels are skipped entirely",
            hint="if intentional, suppress IR005 for this graph; "
            "otherwise check stride/kernel",
        )


def check_parameter_sanity(graph: ComputeGraph) -> Iterator[Diagnostic]:
    for node in graph:
        layer = node.layer
        if isinstance(layer, Conv2d):
            if layer.in_channels <= 0 or layer.out_channels <= 0:
                yield Diagnostic(
                    "IR005",
                    Severity.ERROR,
                    _loc(graph, node),
                    f"Conv2d has non-positive channels "
                    f"(in={layer.in_channels}, out={layer.out_channels})",
                )
                continue
            if layer.groups < 1 or (
                layer.in_channels % layer.groups
                or layer.out_channels % layer.groups
            ):
                yield Diagnostic(
                    "IR005",
                    Severity.ERROR,
                    _loc(graph, node),
                    f"Conv2d groups={layer.groups} does not divide "
                    f"in_channels={layer.in_channels} and "
                    f"out_channels={layer.out_channels}",
                    hint="depthwise convolutions need "
                    "groups == in_channels",
                )
            yield from _check_window(
                graph, node, layer.kernel_size, layer.stride,
                layer.padding, layer.dilation,
            )
        elif isinstance(layer, (MaxPool2d, AvgPool2d)):
            stride = (
                layer.stride if layer.stride is not None else layer.kernel_size
            )
            yield from _check_window(
                graph, node, layer.kernel_size, stride, layer.padding, 1
            )
        elif isinstance(layer, Linear):
            if layer.in_features <= 0 or layer.out_features <= 0:
                yield Diagnostic(
                    "IR005",
                    Severity.ERROR,
                    _loc(graph, node),
                    f"Linear has non-positive features "
                    f"(in={layer.in_features}, out={layer.out_features})",
                )
        elif isinstance(layer, Dropout):
            if not 0.0 <= layer.p < 1.0:
                yield Diagnostic(
                    "IR005",
                    Severity.ERROR,
                    _loc(graph, node),
                    f"Dropout p={layer.p} outside [0, 1)",
                    hint="p=1 would zero every activation; p<0 is "
                    "meaningless",
                )


# -- IR006: batch-scaling coherence -------------------------------------------

#: Batch sizes probed for linearity; co-prime so a summary that scales with
#: e.g. batch² or rounds to powers of two cannot slip through.
_PROBE_BATCHES = (2, 3, 7)


def check_batch_scaling(axis: ImageAxis) -> Iterator[Diagnostic]:
    if axis.summaries is None:
        return
    for name, summary in zip(axis.topology.names, axis.summaries):
        yield from _batch_scaling(name, summary)


def _batch_scaling(name: str, summary: CostSummary) -> Iterator[Diagnostic]:
    linear = (
        "flops", "conv_input_elems", "conv_output_elems",
        "total_output_elems",
    )
    invariant = ("weights", "layers")
    for batch in _PROBE_BATCHES:
        try:
            scaled = summary.at_batch(batch)
        except (ValueError, TypeError) as exc:
            yield Diagnostic(
                "IR006",
                Severity.ERROR,
                name,
                f"at_batch({batch}) raised: {exc}",
            )
            return
        for attr in linear:
            if getattr(scaled, attr) != batch * getattr(summary, attr):
                yield Diagnostic(
                    "IR006",
                    Severity.ERROR,
                    name,
                    f"{attr} is not linear in the batch size: "
                    f"at_batch({batch}) gives {getattr(scaled, attr)}, "
                    f"expected {batch * getattr(summary, attr)}",
                    hint="ConvMeter's b·(c1·F + c2·I + c3·O) regression "
                    "requires exact linearity",
                )
        for attr in invariant:
            if getattr(scaled, attr) != getattr(summary, attr):
                yield Diagnostic(
                    "IR006",
                    Severity.ERROR,
                    name,
                    f"{attr} changed under batching: at_batch({batch}) "
                    f"gives {getattr(scaled, attr)}, expected the "
                    f"batch-invariant {getattr(summary, attr)}",
                )


# -- IR007: unfused BatchNorm advisory ----------------------------------------


def check_unfused_batchnorm(graph: ComputeGraph) -> Iterator[Diagnostic]:
    """Advisory: the graph still carries *foldable* BatchNorm layers.

    Deployed inference stacks fold these into the preceding convolution, so
    an inference-profiled raw graph over-counts elementwise FLOPs and
    memory traffic relative to what hardware actually runs.  Only the
    layers the ``fold-batchnorm`` pass would actually absorb are counted —
    DenseNet's post-concat norms, for example, have no producing conv and
    stay standalone on real runtimes too.  One INFO per graph (not per
    layer — ResNet-152 would emit 151 otherwise).
    """
    from repro.graph.passes import FoldBatchNorm

    count = sum(
        1 for n in graph if FoldBatchNorm._foldable(graph, n) is not None
    )
    if count:
        yield Diagnostic(
            "IR007",
            Severity.INFO,
            _loc(graph),
            f"{count} foldable BatchNorm layer(s) left unfused in an "
            "inference-profiled graph",
            hint="apply the fusion pipeline (repro transform, or --fuse on "
            "trace/campaign/predict) to cost the graph deployment runtimes "
            "actually execute",
        )


# -- IR009: edge-memory advisory ----------------------------------------------


def check_edge_memory(axis: ImageAxis) -> Iterator[Diagnostic]:
    """Advisory: no registered edge-GPU preset can train this graph.

    Checked under the edge backend's memory accounting (reserved carve-out,
    enlarged workspace) at ``axis.edge_batch`` — the smallest batch a
    campaign would attempt.  When even that fails on every Jetson-class
    preset, an ``--backend edge`` campaign of this graph records nothing
    but OOM markers; the advisory says so before the sweep is paid for.
    One INFO per graph, like IR007.  Without profiles (an uncostable
    graph, which IR001–IR004 report) there is nothing to add.
    """
    from repro.hardware.backend import edge_backends

    if axis.profiles is None:
        return
    backends = edge_backends()
    batch = axis.edge_batch
    for name, profile in zip(axis.topology.names, axis.profiles):
        if any(b.fits(profile, batch, training=True) for b in backends):
            continue
        need = min(b.training_memory_bytes(profile, batch) for b in backends)
        biggest = max(backends, key=lambda b: b.memory_available())
        yield Diagnostic(
            "IR009",
            Severity.INFO,
            name,
            f"training at batch {batch} needs >= {need / 1e9:.1f} GB; no "
            f"registered edge preset fits it (largest: "
            f"{biggest.device.name}, "
            f"{biggest.memory_available() / 1e9:.1f} GB usable)",
            hint="an edge campaign (--backend edge) would record every "
            "point of this configuration as OOM; reduce the image size or "
            "pick a smaller model",
        )


# -- IR008: transform semantic preservation -----------------------------------


def _primary_conv_flops(graph: ComputeGraph) -> int:
    """Summed convolution FLOPs, excluding any fused activation epilogue.

    Folding a BatchNorm rescales kernels in place and absorbing an
    activation only appends clamp arithmetic, so this quantity is exactly
    conserved by the inference fusion pipeline — the cross-graph invariant
    IR008 pins down (a column of per-image sums over an image axis).
    """
    total = 0
    for node in graph:
        layer = node.layer
        if not layer.is_conv:
            continue
        in_shapes = graph.input_shapes(node)
        if isinstance(layer, FusedConv2d):
            total += layer.conv_flops(in_shapes, node.output_shape)
        else:
            total += layer.flops(in_shapes, node.output_shape)
    return total


def verify_transform(
    before: ComputeGraph | Topology, after: ComputeGraph | Topology
) -> list[Diagnostic]:
    """Check that a pass pipeline preserved the graph's semantics (IR008).

    A rewrite may re-account costs, but it must not change what the network
    computes: the learnable state (parameter count), the convolution work
    (conv FLOPs excluding epilogues), and the output shape all have to
    survive.  Runs on a (raw, transformed) graph pair — the two-graph
    counterpart of the single-graph rules in :data:`IR_RULES`.

    The pair may be two :class:`~repro.graph.graph.Topology` s over one
    image axis (``after`` as the pipeline rewrote ``before``): each image's
    findings are located at ``<image's graph name>:transform`` and read
    exactly as checking the pair built at that image would.
    """
    if not isinstance(before, Topology):
        before = Topology.of(before)
    raw = before.graph
    fused = after.graph if isinstance(after, Topology) else after
    conserved = (
        ("parameter count", raw.parameter_count(), fused.parameter_count(),
         "folded layers must keep their parameters accounted "
         "(FusedConv2d.bn_features); the Weights metric W feeds the fitted "
         "models"),
        ("conv FLOPs", _primary_conv_flops(raw), _primary_conv_flops(fused),
         "BN folding rescales kernels in place; the convolution's "
         "mathematical cost must be untouched"),
    )
    try:
        shapes = (raw.output_node.output_shape, fused.output_node.output_shape)
    except ValueError as exc:
        shapes = exc
    found: list[Diagnostic] = []
    for i, name in enumerate(before.names):
        loc = f"{name}:transform"
        pairs = [
            (label, at_image(b, i), at_image(a, i), hint)
            for label, b, a, hint in conserved
        ]
        if not isinstance(shapes, ValueError):
            pairs.append(("output shape", shapes[0].at(i), shapes[1].at(i), ""))
        found.extend(
            Diagnostic(
                "IR008",
                Severity.ERROR,
                loc,
                f"{label} changed under transformation: {b} before, "
                f"{a} after",
                hint=hint,
            )
            for label, b, a, hint in pairs
            if b != a
        )
        if isinstance(shapes, ValueError):
            # The sink count is the same at every image; the message names
            # the graph, so it names this image's graph.
            message = str(shapes).replace(repr(raw.name), repr(name))
            found.append(
                Diagnostic(
                    "IR008",
                    Severity.ERROR,
                    loc,
                    f"cannot compare output shapes: {message}",
                )
            )
    return sort_diagnostics(found)


# -- registry and entry points -------------------------------------------------


@dataclass(frozen=True)
class VerifyRule:
    """Registry record of one IR rule (the docs catalogue renders these)."""

    rule: str
    title: str
    #: ``(graph) -> findings`` for a rule that reads only layers,
    #: parameters and wiring; ``(ImageAxis) -> findings`` when
    #: ``per_image``.
    check: Callable[..., Iterable[Diagnostic]]
    #: Whether findings depend on the image size: such a rule runs over
    #: the image axis, any other once per topology.
    per_image: bool = False


IR_RULES: tuple[VerifyRule, ...] = (
    VerifyRule("IR001", "shape-inference consistency", check_shapes,
               per_image=True),
    VerifyRule("IR002", "dead layers / dangling inputs", check_dead_layers),
    VerifyRule("IR003", "topological order and cycles", check_topology),
    VerifyRule("IR004", "metric-accounting invariants",
               check_metric_accounting, per_image=True),
    VerifyRule("IR005", "layer parameter sanity", check_parameter_sanity),
    VerifyRule("IR006", "batch-scaling coherence", check_batch_scaling,
               per_image=True),
    VerifyRule("IR007", "unfused BatchNorm advisory",
               check_unfused_batchnorm),
    VerifyRule("IR009", "edge-memory advisory", check_edge_memory,
               per_image=True),
)


def _relocated(
    diags: list[Diagnostic], old: str, new: str
) -> list[Diagnostic]:
    """Findings located in graph ``old`` (``old`` or ``old:<node>``),
    moved to graph ``new``."""
    if old == new:
        return diags
    return [replace(d, location=new + d.location[len(old):]) for d in diags]


def verify_graph(
    graph: ComputeGraph | Topology,
    summary: CostSummary | Sequence[CostSummary] | None = None,
    ignore: Iterable[str] = (),
    edge_batch: int = 1,
    profile: "CostProfile | Sequence[CostProfile] | None" = None,
) -> list[Diagnostic]:
    """Run every IR rule over a graph; most severe findings first.

    ``summary`` is the production metric summary when the caller holds
    one — a campaign passes the summary of the cached
    :class:`~repro.hardware.roofline.GraphRecord` it measures.  IR004
    checks it against independent per-layer recomputation (the defence
    against stale or corrupted caches) and IR006 scales it; only without
    one does the verifier compute :func:`summarize_costs` itself.
    ``ignore`` suppresses whole rule ids, the verifier's suppression
    mechanism.  ``edge_batch`` is the smallest batch size the caller would
    measure — IR009's coordinate (campaigns pass
    ``min(spec.batch_sizes)``).  ``profile`` is the graph's raw cost
    profile for IR009 when the caller already built it (campaigns measure
    that same profile).

    ``graph`` may be a :class:`~repro.graph.graph.Topology` instead: then
    ``summary`` and ``profile`` hold one entry per image of its axis, and
    the result holds every image's findings, each located at that image's
    graph name.  A plain graph is the one-image case of the same code.
    """
    if isinstance(graph, Topology):
        topology, summaries, profiles = graph, summary, profile
    else:
        topology = Topology.of(graph)
        summaries = None if summary is None else (summary,)
        profiles = None if profile is None else (profile,)
    skip = frozenset(ignore)
    source = "supplied summary"
    if (
        summaries is None
        and not {"IR004", "IR006"} <= skip
        and not _topology_broken(topology.graph)
    ):
        # One production-path summary per image, shared by IR004 and IR006.
        whole = summarize_costs(topology.graph)
        summaries = tuple(
            CostSummary(
                **{
                    f: at_image(getattr(whole, f), i)
                    for f, _ in _METRIC_FIELDS
                }
            )
            for i in range(len(topology.names))
        )
        source = "summarize_costs"
    if profiles is None and "IR009" not in skip:
        from repro.hardware.roofline import profile_graph

        try:
            profiles = profile_graph(topology)
        except (ValueError, KeyError, TypeError):
            pass  # an uncostable graph is IR001-IR004 territory
    axis = ImageAxis(topology, summaries, source, profiles, edge_batch)
    found: list[Diagnostic] = []
    shared: list[Diagnostic] = []
    for rule in IR_RULES:
        if rule.rule in skip:
            continue
        if rule.per_image:
            found.extend(rule.check(axis))
        else:
            shared.extend(rule.check(topology.graph))
    for name in topology.names:
        found.extend(_relocated(shared, topology.graph.name, name))
    return sort_diagnostics(found)


def verify_model(
    name: str,
    image_size: int = 224,
    ignore: Iterable[str] = (),
    fuse: bool = False,
) -> list[Diagnostic]:
    """Build a zoo architecture and verify it.

    A build that raises is itself reported as an ``IR001`` ERROR (shape
    inference is what fails when an architecture definition is broken), so
    callers always get diagnostics rather than exceptions.

    With ``fuse=True``, the default inference fusion pipeline runs first
    and the *transformed* graph is verified, plus the IR008 preservation
    check against the raw graph — the post-transform half of "zero ERRORs
    before and after the pipeline".
    """
    from repro.zoo import build_model, get_entry

    try:
        image_size = max(image_size, get_entry(name).min_image_size)
        graph = build_model(name, image_size)
    except (ValueError, TypeError, KeyError) as exc:
        return [
            Diagnostic(
                "IR001",
                Severity.ERROR,
                f"{name}@{image_size}",
                f"graph construction failed: {exc}",
            )
        ]
    if not fuse:
        return verify_graph(graph, ignore=ignore)
    from repro.graph.passes import default_inference_pipeline

    transformed = default_inference_pipeline().run(graph).graph
    found = verify_graph(transformed, ignore=ignore)
    if "IR008" not in frozenset(ignore):
        found.extend(verify_transform(graph, transformed))
    return sort_diagnostics(found)
