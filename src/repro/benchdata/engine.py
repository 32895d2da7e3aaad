"""Campaign execution engine: parallel, cached, resumable sweeps.

The paper's measurement campaign is a few thousand independent
``(model, batch, image_size)`` points per scenario.  This module turns that
sweep into an explicit point list and executes it through one engine:

* **Enumeration** — :func:`enumerate_points` expands a
  :class:`CampaignSpec` into a deterministic, ordered list of
  :class:`SweepPoint` s.  The order is part of the contract: the assembled
  dataset always follows enumeration order, never completion order.
* **Execution** — :func:`run_campaign` measures the points one
  ``(nodes, model)`` task of ``(nodes, model, image)`` grids at a time
  (:func:`_measure_task`), either in process (``workers <= 1``) or one
  task per call of a :class:`~concurrent.futures.ProcessPoolExecutor`.
  A task looks up each grid's graph record, computes the
  clean-time/noise/work grids of the images one topology covers together,
  as one block (:func:`_point_grids`), and then measures grid by grid
  (:func:`_measure_grid`: one gate per batch and one clean × noise
  product per grid).  Results are keyed by point index and merged in
  enumeration order, so parallel runs are byte-identical to serial ones;
  all measurement noise is seeded from the point identity via
  :func:`repro.hardware.noise.point_seed`, never from call order.
* **Memoisation** — each zoo model is built once per process, and its
  graph — raw, rewritten by the spec's transform, or cut down to a Table 2
  block — is costed over all its image sizes in one walk
  (:func:`~repro.hardware.roofline.topologies`); the per-image records go
  into :data:`~repro.hardware.roofline.GRAPH_RECORD_CACHE`.  Per-grid
  cache deltas are aggregated across workers so the reported hit rate
  covers the whole campaign.
* **Resume** — with a :class:`repro.benchdata.store.CampaignStore`
  attached, each point's records (including the empty record lists of
  memory-gated points) are appended to a JSONL log, one write per grid
  as it completes; rerunning skips every point already on disk and
  appends only the rest, so a killed run re-measures at most one grid.
* **Verification** — before measuring, :func:`run_campaign` runs the graph
  IR verifier (:mod:`repro.analysis.verify`) over every unique graph the
  sweep will touch — once per model or block topology over its image
  axis — and leaves the record of each graph it measures in the cache
  the sweep reads.  ``verify="strict"`` refuses to measure a graph with
  ERROR diagnostics; the default ``"warn"`` measures anyway but emits a
  warning and records the error count in :class:`CampaignStats`.  A store
  keeps each graph's verdict in its manifest, so a resume verifies only
  the graphs no earlier run of the store verified.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.benchdata.records import Dataset, TimingRecord
from repro.caching import CacheStats, LRUCache
from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer
from repro.graph.graph import Topology
from repro.graph.passes import PassPipeline, resolve_transform
from repro.hardware import roofline
from repro.hardware.backend import ExecutionBackend, get_backend, phase_work
from repro.hardware.device import DeviceSpec
from repro.hardware.executor import SimulatedExecutor, trace_measurement
from repro.hardware.roofline import (
    CostProfile,
    GraphRecord,
    graph_record,
    profile_graph,
    topologies,
    topology_records,
)
from repro.trace.tracer import merge_counters
from repro.zoo.blocks import BLOCK_CATALOGUE, block_by_name
from repro.zoo.registry import get_entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses spec)
    from repro.benchdata.store import CampaignStore, Verdicts
    from repro.trace.tracer import Tracer

SCENARIOS = ("inference", "training", "distributed", "blocks")


def block_profile(block_name: str, image_size: int) -> CostProfile:
    """Cached cost profile of a Table 2 block at a given parent image size."""
    return graph_record("block", block_name, image_size).profile


@dataclass(frozen=True)
class PointGrid:
    """The batched per-point quantities of one ``(model, image_size)`` sweep.

    Row ``i`` of each array belongs to ``spec.batch_sizes[i]``.  Each value
    equals its per-point definition bit for bit: the executor's clean times
    and seeded noise draws, and the work sums of :func:`point_counters`.
    The grids of one block (:func:`_point_grids`) are views into arrays
    computed for all its images at once; each equals, dtype included, the
    grid its image gives alone.  Nothing keeps them: a task computes its
    blocks, measures their grids and drops them.
    """

    #: Clean-time components per batch, shape ``(batches, components)``;
    #: ``None`` for distributed sweeps.
    clean: np.ndarray | None
    #: Noise factors from
    #: :meth:`~repro.hardware.executor.SimulatedExecutor.noise_grids`,
    #: shape ``(batches, reps, phases)``; ``None`` for distributed sweeps,
    #: whose trainer draws per point.
    noise: np.ndarray | None
    #: Work counters per batch, shape ``(batches, 2)``: FLOPs, bytes.
    work: np.ndarray
    #: Gradient bytes one all-reduce moves (distributed counters).
    grad_bytes: float


def _point_grids(
    spec: CampaignSpec,
    profiles: list[CostProfile],
    executor: SimulatedExecutor,
) -> list[PointGrid]:
    """The :class:`PointGrid` of each of one topology's ``profiles``, from
    one clean-time evaluation, one noise draw and one work sum over them
    all (the stacked profiles of :meth:`CostProfile.stack`)."""
    batches = spec.batch_sizes
    training = spec.scenario == "training"
    clean = noise = None
    if spec.scenario != "distributed":
        grids = executor.clean_time_grids(profiles, batches, training)
        clean = np.array([[g[batch] for batch in batches] for g in grids])
        noise = executor.noise_grids(profiles, batches, spec.reps, training)
    flops, nbytes = _work_sums(
        spec.scenario,
        CostProfile.stack(profiles),
        np.asarray(batches)[:, None],
    )
    work = np.stack((flops, nbytes), axis=-1)
    return [
        PointGrid(
            clean=None if clean is None else clean[i],
            noise=None if noise is None else noise[i],
            work=work[i],
            grad_bytes=_grad_bytes(profile, executor.backend),
        )
        for i, profile in enumerate(profiles)
    ]


@dataclass(frozen=True)
class SweepPoint:
    """One independently measurable configuration of a campaign."""

    scenario: str
    model: str
    image_size: int
    batch: int
    nodes: int = 1
    rep: int = 0

    @property
    def key(self) -> str:
        """Stable identity used for record-store resume bookkeeping."""
        return (
            f"{self.scenario}:{self.model}:{self.image_size}"
            f":{self.batch}:{self.nodes}:{self.rep}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's record set, and nothing else.

    Two specs with equal :meth:`fingerprint` produce byte-identical record
    streams — the invariant the store checks before resuming.
    """

    scenario: str
    models: tuple[str, ...]
    device: DeviceSpec
    batch_sizes: tuple[int, ...]
    image_sizes: tuple[int, ...]
    seed: int = 0
    reps: int = 1
    max_seconds: float | None = None
    node_counts: tuple[int, ...] = (1,)
    gpus_per_node: int = 4
    #: Graph transform applied before profiling: ``""`` (raw graphs, the
    #: default), ``"inference"`` (the default fusion pipeline), or a
    #: comma-separated list of registered pass names — the vocabulary of
    #: :func:`repro.graph.passes.resolve_transform`.  Part of the
    #: fingerprint, so fused and raw stores never cross-resume.
    transform: str = ""
    #: Execution backend name from
    #: :data:`repro.hardware.backend.BACKEND_REGISTRY`; ``""`` (the
    #: default) is the historical roofline simulator.  Part of the
    #: fingerprint when set, so e.g. edge and datacenter stores never
    #: cross-resume.
    backend: str = ""

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; one of {SCENARIOS}"
            )
        # KeyError on an unknown name, before a sweep silently drops it.
        lookup = block_by_name if self.kind == "block" else get_entry
        for name in self.models:
            lookup(name)
        if self.transform:
            if self.scenario == "blocks":
                raise ValueError(
                    "transform is not supported for the blocks scenario"
                )
            resolve_transform(self.transform)  # KeyError on unknown passes
        if self.backend:
            # Builds once to validate the name *and* the device pairing
            # (e.g. fp16 on a device without fp16 support) at spec
            # construction, not mid-campaign.
            get_backend(self.backend, self.device)

    @property
    def kind(self) -> str:
        """The :func:`~repro.hardware.roofline.graph_record` kind swept."""
        return "block" if self.scenario == "blocks" else "model"

    def manifest(self) -> dict:
        """JSON-serialisable description, written to the store manifest."""
        m = {
            "scenario": self.scenario,
            "models": list(self.models),
            "device": self.device.name,
            "batch_sizes": list(self.batch_sizes),
            "image_sizes": list(self.image_sizes),
            "seed": self.seed,
            "reps": self.reps,
            "max_seconds": self.max_seconds,
            "node_counts": list(self.node_counts),
            "gpus_per_node": self.gpus_per_node,
        }
        # Only serialised when set, so every pre-transform (and
        # pre-backend) store manifest and its fingerprint remain valid for
        # resume.
        if self.transform:
            m["transform"] = self.transform
        if self.backend:
            m["backend"] = self.backend
        return m

    def fingerprint(self) -> str:
        blob = json.dumps(self.manifest(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _valid_images(spec: CampaignSpec, name: str) -> tuple[int, ...]:
    """The spec's image sizes that model or block ``name`` can be built
    at: those at or above its (parent) model's minimum."""
    model = block_by_name(name).model if spec.kind == "block" else name
    min_size = get_entry(model).min_image_size
    return tuple(s for s in spec.image_sizes if s >= min_size)


def enumerate_points(spec: CampaignSpec) -> list[SweepPoint]:
    """Expand a spec into its ordered sweep-point list.

    Only architecture constraints (minimum image size) are applied here;
    memory and runtime-budget gating need a built profile and therefore
    happen inside :func:`_measure_grid`, once per grid and batch.
    """
    names = spec.models
    if spec.kind == "block":
        names = tuple(
            b.name for b in BLOCK_CATALOGUE
            if not spec.models or b.name in spec.models
        )
    node_counts = spec.node_counts if spec.scenario == "distributed" else (1,)
    return [
        SweepPoint(
            spec.scenario, name, image, batch, nodes=nodes, rep=rep
        )
        for nodes in node_counts
        for name in names
        for image in _valid_images(spec, name)
        for batch in spec.batch_sizes
        for rep in range(spec.reps)
    ]


# -- verify-before-measure ---------------------------------------------------

VERIFY_MODES = ("off", "warn", "strict")

#: Cached verification verdicts: a sweep verifies each unique graph once
#: per process.  Kept apart from the graph record cache: verdicts depend on
#: campaign policy (transform, IR007 gate and IR009 edge batch are in the
#: key) and need the graph, which a record does not hold.
VERIFY_CACHE: LRUCache[
    tuple[str, str, int, str, bool, int], tuple[Diagnostic, ...]
] = LRUCache(maxsize=512)


def _verify_half(
    kind: str,
    name: str,
    images: tuple[int, ...],
    topology: Topology,
    pipeline: PassPipeline | None,
    measured: bool = True,
    **kwargs,
) -> list[Diagnostic]:
    """Verify ``topology`` (raw, or as ``pipeline`` rewrote it) against
    its records, costed from this very topology; an uncostable graph has
    none, and IR001–IR004 report why.  A ``measured`` half leaves its
    records in the graph record cache the sweep reads; the raw half of a
    transformed sweep is never measured, so it caches none."""
    # Imported lazily: repro.analysis pulls in repro.core, which imports
    # this package's records module — a cycle at module-import time.
    from repro.analysis.verify import verify_graph

    try:
        records = (
            topology_records(kind, name, images, topology, pipeline)
            if measured
            else tuple(map(GraphRecord.of, profile_graph(topology)))
        )
    except (ValueError, KeyError, TypeError):
        records = ()
    return verify_graph(
        topology,
        summary=tuple(r.summary for r in records) or None,
        profile=tuple(r.profile for r in records) or None,
        **kwargs,
    )


def _verify_topology(
    kind: str,
    name: str,
    images: list[int],
    transform: str,
    advise_fusion: bool,
    edge_batch: int,
) -> list[tuple[Diagnostic, ...]]:
    """Verify ``name`` at ``images`` one raw topology at a time
    (:func:`~repro.hardware.roofline.topologies`), leaving each image's
    verdict in :data:`VERIFY_CACHE` and its records in the graph record
    cache the sweep reads; returns the verdicts in image order."""
    from repro.analysis.verify import verify_transform

    pipeline = resolve_transform(transform)
    verdicts: list[tuple[Diagnostic, ...]] = []
    for covered, raw in topologies(kind, name, images):
        # IR007 (fold your BatchNorms) is only actionable advice for raw
        # inference sweeps; training needs live BatchNorm and a fused
        # sweep already took the advice.
        found = _verify_half(
            kind, name, covered, raw, None, measured=pipeline is None,
            ignore=() if advise_fusion else ("IR007",),
            edge_batch=edge_batch,
        )
        if pipeline is not None:
            # Both halves of the contract: the rewritten graph is itself a
            # well-formed IR, and the rewrite preserved the semantics.
            # IR009 is skipped on the fused half — one edge-memory
            # advisory per graph is enough.
            fused = raw.rewritten(pipeline)
            found += _verify_half(
                kind, name, covered, fused, pipeline,
                ignore=("IR007", "IR009"),
            ) + verify_transform(raw, fused)
        for image, graph in zip(covered, raw.names):
            # Each finding is located at its image's graph: graph or
            # graph:<node>.
            verdict = tuple(sort_diagnostics(
                d for d in found
                if d.location == graph or d.location.startswith(graph + ":")
            ))
            VERIFY_CACHE.add(
                (kind, name, image, transform, advise_fusion, edge_batch),
                verdict,
            )
            verdicts.append(verdict)
    return verdicts


def campaign_verdicts(
    spec: CampaignSpec,
    points: list[SweepPoint],
    persisted: "Verdicts | None" = None,
) -> "Verdicts":
    """Diagnostics of every unique graph of ``points`` (the spec's sweep),
    keyed ``"<name>@<image>"`` in enumeration order.

    A graph with a ``persisted`` verdict (a store's, from an earlier run of
    the same spec) is not verified again.  The rest are verified once per
    process and cached: each model or block once over its missing images
    (:func:`_verify_topology`).  Verification builds each topology once
    (and rewrites it once, for transformed campaigns) and leaves the
    records the sweep measures (for a transformed campaign, only the
    fused ones) in the record cache, so the measuring loop neither
    rebuilds nor re-costs them, and IR004 checks the very summaries the
    records carry; what verification adds on top is the rule work
    itself.  For transformed campaigns each
    topology is verified twice — raw and after the pipeline — plus the
    IR008 preservation check across the pair.
    """
    persisted = persisted or {}
    policy = (
        spec.transform,
        spec.scenario == "inference" and not spec.transform,  # IR007 gate
        min(spec.batch_sizes),  # IR009's edge batch
    )
    graphs = dict.fromkeys((p.model, p.image_size) for p in points)
    missing: dict[str, list[int]] = {}
    for name, image in graphs:
        if f"{name}@{image}" not in persisted and (
            (spec.kind, name, image, *policy) not in VERIFY_CACHE
        ):
            missing.setdefault(name, []).append(image)
    for name, images in missing.items():
        _verify_topology(spec.kind, name, images, *policy)
    verdicts: Verdicts = {}
    for name, image in graphs:
        key = f"{name}@{image}"
        # A verdict the bounded cache has evicted since is verified again.
        verdicts[key] = persisted[key] if key in persisted else (
            VERIFY_CACHE.get_or_compute(
                (spec.kind, name, image, *policy),
                lambda: _verify_topology(spec.kind, name, [image], *policy)[0],
            )
        )
    return verdicts


def verify_campaign_graphs(spec: CampaignSpec) -> list[Diagnostic]:
    """Verify every unique graph a campaign will measure; see
    :func:`campaign_verdicts`."""
    verdicts = campaign_verdicts(spec, enumerate_points(spec))
    return sort_diagnostics(d for diags in verdicts.values() for d in diags)


def _run_verification(
    spec: CampaignSpec,
    points: list[SweepPoint],
    verify: str,
    store: "CampaignStore | None",
) -> tuple[int, "Verdicts | None"]:
    """Apply the requested verify mode.

    Returns the ERROR count and the verdicts for the store to persist
    (``None`` when verification is off).  Graphs the store already holds
    a verdict for are not verified again; the count, the warning and the
    strict refusal all come from the union of persisted and fresh
    verdicts, so they do not depend on where a campaign was split.
    """
    if verify not in VERIFY_MODES:
        raise ValueError(
            f"unknown verify mode {verify!r}; one of {VERIFY_MODES}"
        )
    if verify == "off":
        return 0, None
    verdicts = campaign_verdicts(
        spec, points,
        store.persisted_verdicts() if store is not None else None,
    )
    diags = sort_diagnostics(d for found in verdicts.values() for d in found)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        if verify == "strict":
            from repro.analysis.verify import GraphVerificationError

            raise GraphVerificationError(diags)
        warnings.warn(
            f"campaign {spec.scenario!r} graphs failed verification with "
            f"{len(errors)} ERROR diagnostic(s); measuring anyway because "
            f"verify='warn'. First: {errors[0].render()}",
            RuntimeWarning,
            stacklevel=3,
        )
    return len(errors), verdicts


def _gated(
    spec: CampaignSpec,
    batch: int,
    profile: CostProfile,
    backend: ExecutionBackend,
    clean: Sequence[float] | None,
) -> str:
    """Why the points at ``batch`` are excluded: ``"oom"`` (does not fit
    device memory), ``"budget"`` (over the runtime budget), or ``""``
    (measurable).

    Gating depends only on the spec, the graph and the batch — never on
    the rep, nor on whether the point is being measured or traced — which
    is what makes the per-point OOM markers in the store deterministic
    across workers and resume splits.  ``clean`` is the batch's row of the
    clean-time grid (forward first, backward second for training; ``None``
    for distributed points, which have no runtime budget)."""
    training = spec.scenario in ("training", "distributed")
    if not backend.fits(profile, batch, training=training):
        return "oom"
    if spec.max_seconds is None or clean is None:
        return ""
    estimate = clean[0]
    if spec.scenario == "training":
        estimate += clean[1]
    return "budget" if estimate > spec.max_seconds else ""


def _work_sums(scenario: str, profile: CostProfile, batch):
    """FLOPs and bytes of the counted phases, each summed over layers.

    ``batch`` is an ``int``, or a column of batch sizes giving one sum per
    row; a row reduces in the same order as the 1-D sum of that batch.  A
    :meth:`CostProfile.stack` adds a leading image axis.
    """
    phases = ("forward",)
    if scenario in ("training", "distributed"):
        phases = ("forward", "backward", "grad_update")
    flops = nbytes = 0.0
    for phase in phases:
        f, b = phase_work(profile, batch, phase)
        flops = flops + f.sum(axis=-1)
        nbytes = nbytes + b.sum(axis=-1)
    return flops, nbytes


def _grad_bytes(profile: CostProfile, backend: ExecutionBackend) -> float:
    return backend.spec.float_bytes * float(
        profile.param_counts[profile.has_params].sum()
    )


def _counters(
    spec: CampaignSpec,
    point: SweepPoint,
    flops: float,
    nbytes: float,
    grad_bytes: float,
) -> dict[str, float]:
    counters = {"flops": flops, "bytes": nbytes}
    if spec.scenario == "distributed":
        ranks = point.nodes * spec.gpus_per_node
        if ranks > 1 and grad_bytes > 0.0:
            counters["allreduce_bytes"] = grad_bytes
    return counters


def point_counters(
    spec: CampaignSpec,
    point: SweepPoint,
    profile: CostProfile,
    backend: ExecutionBackend,
) -> dict[str, float]:
    """Analytic work counters of one measured point (per-rank quantities).

    Always on, independent of tracing, so campaign stats and store
    manifests are identical whether or not a trace was requested.  Sums
    the same per-phase accounting the span layer records
    (:func:`~repro.hardware.backend.phase_work`): forward work for
    inference, plus backward/optimizer work for training scenarios, plus
    all-reduce volume when more than one rank participates.  The
    measuring loop reads the same values from its :class:`PointGrid`,
    summed for the whole batch sweep at once.
    """
    flops, nbytes = _work_sums(spec.scenario, profile, point.batch)
    return _counters(
        spec, point, float(flops), float(nbytes), _grad_bytes(profile, backend)
    )


#: What measuring one sweep point yields: its records (empty when gated),
#: its work counters and its gate status (``""``, ``"oom"`` or
#: ``"budget"``).
PointOutcome = tuple[list[TimingRecord], dict[str, float], str]


def _grids(
    pending: list[tuple[int, SweepPoint]]
) -> list[list[tuple[int, SweepPoint]]]:
    """``pending`` split into its ``(nodes, model, image)`` runs.  Each run
    is contiguous in enumeration order (batch and rep vary fastest), so a
    run is the pending part of one grid."""
    return [
        list(run)
        for _, run in groupby(
            pending, key=lambda item: (
                item[1].nodes, item[1].model, item[1].image_size
            ),
        )
    ]


def _tasks(
    grids: list[list[tuple[int, SweepPoint]]]
) -> list[list[list[SweepPoint]]]:
    """The points of ``grids``, grouped into runs of one ``(nodes,
    model)``: one task each, which a worker measures whole, so each block
    of a task's images (one topology's) is computed once."""
    return [
        [[point for _, point in grid] for grid in run]
        for _, run in groupby(
            grids, key=lambda grid: (grid[0][1].nodes, grid[0][1].model)
        )
    ]


def _measure_grid(
    spec: CampaignSpec,
    points: list[SweepPoint],
    record: roofline.GraphRecord,
    grid: PointGrid,
    backend: ExecutionBackend,
    tracer: "Tracer | None" = None,
) -> list[PointOutcome]:
    """Measure points of one ``(nodes, model, image)`` grid, in order.

    ``record`` and ``grid`` are the grid's graph record and
    :class:`PointGrid` (clean times, noise factors and work sums), as
    :func:`_measure_task` resolves them.  Each batch is gated once, for
    memory and budget.  Every phase time of a single-device grid comes
    from one product, ``clean × noise`` over batches × reps × phases: the
    multiply the executor's ``measure_*`` makes per point, bit for bit.
    Per point only the lookup, its record and its counters are left; a
    distributed point is one :meth:`DistributedTrainer.measure_step`.

    Gated points yield ``([], {}, "oom" | "budget")`` — a graceful
    per-point record of *why* nothing was measured, which the store
    persists so e.g. an edge-backend campaign maps its OOM frontier
    instead of crashing.  With a ``tracer``, each measurement is
    additionally wrapped in a ``model`` span with the per-phase/per-layer
    spans the executor's :func:`trace_measurement` or the trainer emits;
    the recorded values are identical either way.
    """
    first = points[0]
    profile = record.profile
    tracing = tracer is not None and tracer.enabled
    clean = times = noise = None
    if grid.clean is not None:
        clean = grid.clean.tolist()
        # [batch][rep][phase]: per element the float64 multiply that
        # measure_inference / measure_training_step make per point.
        times = (grid.clean[:, None, :] * grid.noise).tolist()
        if tracing:
            noise = grid.noise.tolist()
    work = grid.work.tolist()
    trainer = None
    devices = 1
    if spec.scenario == "distributed":
        cluster = ClusterSpec(
            nodes=first.nodes,
            gpus_per_node=spec.gpus_per_node,
            device=spec.device,
        )
        devices = cluster.total_devices
        trainer = DistributedTrainer(cluster, seed=spec.seed, backend=backend)
    # Block points are forward passes of a network fragment.
    scenario = "inference" if spec.scenario == "blocks" else spec.scenario
    # batch -> (grid row, gate status, work counters)
    batches: dict[int, tuple[int, str, dict]] = {}
    outcomes: list[PointOutcome] = []
    for point in points:
        if point.batch not in batches:
            row = spec.batch_sizes.index(point.batch)
            flops, nbytes = work[row]
            batches[point.batch] = (
                row,
                _gated(
                    spec, point.batch, profile, backend,
                    None if clean is None else clean[row],
                ),
                _counters(spec, point, flops, nbytes, grid.grad_bytes),
            )
        row, gate, counters = batches[point.batch]
        if gate:
            outcomes.append(([], {}, gate))
            continue
        if tracing:
            tracer.begin(
                point.key,
                category="model",
                attrs={
                    "model": point.model,
                    "image_size": point.image_size,
                    "batch": point.batch,
                    "nodes": point.nodes,
                    "rep": point.rep,
                },
            )
        if trainer is not None:
            phases = trainer.measure_step(
                profile, point.batch, rep=point.rep, tracer=tracer
            )
            t = [phases.forward, phases.backward, phases.grad_update]
        else:
            t = times[row][point.rep]
            if tracing:
                trace_measurement(
                    tracer, backend, profile, point.batch,
                    noise[row][point.rep], t,
                )
            if len(t) == 1:
                t = [t[0], 0.0, 0.0]
        if tracing:
            tracer.end()
        measured = TimingRecord(
            model=point.model,
            device=spec.device.name,
            image_size=point.image_size,
            batch=point.batch,
            nodes=point.nodes,
            devices=devices,
            scenario=scenario,
            features=record.features,
            t_fwd=t[0],
            t_bwd=t[1],
            t_grad=t[2],
            rep=point.rep,
            backend=spec.backend,
        )
        outcomes.append(([measured], counters, ""))
    return outcomes


def _measure_task(
    spec: CampaignSpec,
    task: list[list[SweepPoint]],
    tracer: "Tracer | None" = None,
) -> Iterator[tuple[list[PointOutcome], CacheStats]]:
    """Measure one ``(nodes, model)`` task's grids (:func:`_tasks`), in
    order, yielding each grid's outcomes and graph record cache delta as
    soon as it is measured.

    Each grid's record is one counted :func:`graph_record` lookup (a
    graph's first lookup costs every image of its sweep at once; records
    are exact per image, so which grid comes first — any worker layout or
    resume split — does not matter), and the deltas let campaign-wide
    totals aggregate across processes.  The backend and executor are
    built once.  The grids whose records share a walk
    (``GraphRecord.axis``, one topology) form a block, whose
    :class:`PointGrid` s come from one :func:`_point_grids` call.
    """
    model = task[0][0].model
    pipeline = resolve_transform(spec.transform)
    images = _valid_images(spec, model)
    # One lookup per grid, each paired with the cache counters after it.
    cache = roofline.GRAPH_RECORD_CACHE
    counts = [cache.stats()]
    looked_up = [
        (
            graph_record(
                spec.kind, model, points[0].image_size, pipeline,
                images=images,
            ),
            cache.stats(),
        )
        for points in task
    ]
    records = [record for record, _ in looked_up]
    counts += [after for _, after in looked_up]
    executor = SimulatedExecutor(
        seed=spec.seed, backend=get_backend(spec.backend, spec.device)
    )
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i, record in enumerate(records):
        blocks.setdefault(record.axis, []).append(i)
    grids: dict[int, PointGrid] = {}
    for block in blocks.values():
        profiles = [records[i].profile for i in block]
        grids.update(zip(block, _point_grids(spec, profiles, executor)))
    for i, points in enumerate(task):
        yield _measure_grid(
            spec, points, records[i], grids[i], executor.backend, tracer
        ), counts[i + 1] - counts[i]


def trace_campaign(
    spec: CampaignSpec,
    tracer: "Tracer",
    points: list[SweepPoint] | None = None,
) -> None:
    """Re-execute a campaign's sweep serially under ``tracer``.

    Tracing is a post-pass over the enumerated point list, deliberately
    independent of how the measuring run was parallelised, resumed, or
    cached: every duration re-derives from point-identity noise seeding
    (:func:`repro.hardware.noise.point_seed`), so the emitted trace is
    byte-identical to the one a fresh serial run would produce.  Gated
    points emit no spans, mirroring their empty record lists.
    """
    if points is None:
        points = enumerate_points(spec)
    tracer.begin(
        f"campaign:{spec.scenario}",
        category="campaign",
        attrs={"device": spec.device.name, "n_points": len(points)},
    )
    # One span stream per point, in enumeration order: each task measures
    # its grids' points one after another under the tracer.
    for task in _tasks(_grids(list(enumerate(points)))):
        for _ in _measure_task(spec, task, tracer):
            pass
    tracer.end()


# -- process-pool plumbing ---------------------------------------------------

_WORKER_SPEC: CampaignSpec | None = None


def _init_worker(spec: CampaignSpec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _run_task(
    task: list[list[SweepPoint]],
) -> list[tuple[list[PointOutcome], CacheStats]]:
    """Executed inside a pool worker: :func:`_measure_task`, whole."""
    assert _WORKER_SPEC is not None, "worker pool not initialised"
    return list(_measure_task(_WORKER_SPEC, task))


# -- driver ------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStats:
    """Observability counters of one :func:`run_campaign` invocation."""

    scenario: str
    workers: int
    #: Enumerated sweep points (measured + gated + restored).
    n_points: int
    #: Points skipped because the record store already held them.
    n_restored: int
    #: Points actually measured by this run.
    n_executed: int
    #: Records in the assembled dataset.
    n_records: int
    elapsed_seconds: float
    cache: CacheStats = field(default_factory=CacheStats)
    #: ERROR diagnostics from pre-measurement graph verification (always 0
    #: under ``verify="strict"``, which refuses to measure instead).
    n_verify_errors: int = 0
    #: Work counters aggregated over the points measured by this run, in
    #: enumeration order (FLOPs executed, bytes moved, all-reduce volume,
    #: cache hits) — independent of worker count and of whether a trace
    #: was requested.
    counters: dict[str, float] = field(default_factory=dict)
    #: Points this run gated out for not fitting device memory — the OOM
    #: frontier an edge-backend campaign maps.
    n_oom: int = 0

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_executed / self.elapsed_seconds

    def summary(self) -> str:
        oom = f", {self.n_oom} OOM" if self.n_oom else ""
        return (
            f"campaign {self.scenario}: {self.n_points} points "
            f"({self.n_executed} measured, {self.n_restored} restored{oom}) "
            f"in {self.elapsed_seconds:.2f}s with {self.workers} worker(s) "
            f"— {self.points_per_second:.1f} points/s, "
            f"profile cache {self.cache.summary()}"
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "workers": self.workers,
            "n_points": self.n_points,
            "n_restored": self.n_restored,
            "n_executed": self.n_executed,
            "n_records": self.n_records,
            "elapsed_seconds": self.elapsed_seconds,
            "points_per_second": self.points_per_second,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "n_verify_errors": self.n_verify_errors,
            "n_oom": self.n_oom,
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass(frozen=True)
class CampaignResult:
    dataset: Dataset
    stats: CampaignStats


def run_campaign(
    spec: CampaignSpec,
    workers: int = 0,
    store: "CampaignStore | None" = None,
    progress: Callable[[int, int], None] | None = None,
    verify: str = "warn",
    tracer: "Tracer | None" = None,
) -> CampaignResult:
    """Execute a campaign and assemble its dataset in enumeration order.

    Points are measured one ``(nodes, model)`` task at a time
    (:func:`_measure_task`).  ``workers <= 1`` measures in process; larger
    values fan tasks out over a process pool.  Either way the record
    stream is identical.  With a ``store``, already-recorded points are
    restored instead of re-measured and each grid's results are appended
    as it completes, making interrupted campaigns resumable at point
    granularity: a killed run re-measures at most one grid.
    ``progress(done, total)`` is invoked after each newly measured grid
    with the number of points measured so far.

    ``verify`` controls pre-measurement graph verification: ``"warn"``
    (default) measures despite ERROR diagnostics but warns and counts them
    in the stats, ``"strict"`` raises
    :class:`~repro.analysis.verify.GraphVerificationError` instead of
    producing subtly wrong numbers, ``"off"`` skips verification.

    With a ``tracer``, the full sweep is additionally traced via
    :func:`trace_campaign` after measuring — a serial post-pass, so the
    trace (and the record stream, and the stats counters) is identical
    for any ``workers`` value and any resume split.
    """
    points = enumerate_points(spec)
    n_verify_errors, verdicts = _run_verification(
        spec, points, verify, store
    )
    restored = store.restored_points() if store is not None else {}
    keys = [p.key for p in points]
    pending = [
        (i, p) for i, p in enumerate(points) if keys[i] not in restored
    ]

    grids = _grids(pending)
    tasks = _tasks(grids)
    results: dict[int, list[TimingRecord]] = {}
    counters: dict[str, float] = {}
    cache_delta = CacheStats()
    n_oom = 0
    start = time.perf_counter()
    with ExitStack() as stack:
        if workers > 1 and tasks:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(spec,),
            ))
            measured = chain.from_iterable(pool.map(
                _run_task, tasks,
                chunksize=max(1, len(tasks) // (workers * 8)),
            ))
        else:
            measured = chain.from_iterable(
                _measure_task(spec, task) for task in tasks
            )
        # Grids come back in submission (= enumeration) order and each
        # grid's points in order, so the counter floats accumulate in the
        # same order for any worker count; the store checkpoints between
        # grids, one write per grid.
        for grid, (outcomes, delta) in zip(grids, measured):
            cache_delta += delta
            for (index, _), (records, point_delta, gate) in zip(
                grid, outcomes
            ):
                results[index] = records
                merge_counters(counters, point_delta)
                n_oom += gate == "oom"
            if store is not None:
                store.append([
                    (keys[index], records, gate)
                    for (index, _), (records, _, gate) in zip(grid, outcomes)
                ])
            if progress is not None:
                progress(len(results), len(pending))
    elapsed = time.perf_counter() - start

    dataset = Dataset()
    for i, key in enumerate(keys):
        records = restored.get(key)
        dataset.extend(results[i] if records is None else records)

    if tracer is not None and tracer.enabled:
        trace_campaign(spec, tracer, points)

    merge_counters(counters, cache_delta.as_counters())
    stats = CampaignStats(
        scenario=spec.scenario,
        workers=max(1, workers),
        n_points=len(points),
        n_restored=len(restored),
        n_executed=len(pending),
        n_records=len(dataset),
        elapsed_seconds=elapsed,
        cache=cache_delta,
        n_verify_errors=n_verify_errors,
        counters=counters,
        n_oom=n_oom,
    )
    if store is not None:
        store.finalize(stats, verdicts)
    return CampaignResult(dataset=dataset, stats=stats)
