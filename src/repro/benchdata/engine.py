"""Campaign execution engine: parallel, cached, resumable sweeps.

The paper's measurement campaign is a few thousand independent
``(model, batch, image_size)`` points per scenario.  This module turns that
sweep into an explicit point list and executes it through one engine:

* **Enumeration** — :func:`enumerate_points` expands a
  :class:`CampaignSpec` into a deterministic, ordered list of
  :class:`SweepPoint` s.  The order is part of the contract: the assembled
  dataset always follows enumeration order, never completion order.
* **Execution** — :func:`run_campaign` measures every point either in
  process (``workers <= 1``) or fanned out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Results are keyed by
  point index, so parallel runs are byte-identical to serial ones; all
  measurement noise is seeded from the point identity via
  :func:`repro.hardware.noise.point_seed`, never from call order.
* **Memoisation** — each graph is built and costed once per process into
  :data:`~repro.hardware.roofline.GRAPH_RECORD_CACHE`; per-point cache
  deltas are aggregated across workers so the reported hit rate covers
  the whole campaign.
* **Resume** — with a :class:`repro.benchdata.store.CampaignStore`
  attached, each point's records (including the empty record lists of
  memory-gated points) are appended to a JSONL log as they complete;
  rerunning skips everything already on disk and appends only the rest.
* **Verification** — before measuring, :func:`run_campaign` runs the graph
  IR verifier (:mod:`repro.analysis.verify`) over every unique graph the
  sweep will touch, and leaves each verified graph's record in the cache
  the sweep reads.  ``verify="strict"`` refuses to measure a graph with
  ERROR diagnostics; the default ``"warn"`` measures anyway but emits a
  warning and records the error count in :class:`CampaignStats`.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.benchdata.records import Dataset, TimingRecord
from repro.caching import CacheStats, LRUCache
from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer
from repro.graph.graph import ComputeGraph
from repro.graph.passes import resolve_transform
from repro.hardware import roofline
from repro.hardware.backend import ExecutionBackend, get_backend, phase_work
from repro.hardware.device import DeviceSpec
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.roofline import (
    CostProfile,
    GraphRecord,
    build_graph,
    graph_record,
)
from repro.trace.tracer import merge_counters
from repro.zoo.blocks import BLOCK_CATALOGUE
from repro.zoo.registry import get_entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses spec)
    from repro.benchdata.store import CampaignStore
    from repro.trace.tracer import Tracer

SCENARIOS = ("inference", "training", "distributed", "blocks")


def block_profile(block_name: str, image_size: int) -> CostProfile:
    """Cached cost profile of a Table 2 block at a given parent image size."""
    return graph_record("block", block_name, image_size).profile


#: Bounded cache of clean-time grids, keyed by everything the noise-free
#: components depend on: device, execution backend, scenario (training adds
#: phases), graph transform, model identity, and the swept batch sizes.
#: One entry holds the whole batch sweep of a ``(model, image_size)`` pair,
#: computed from a single batched roofline evaluation per phase — so a
#: campaign pays the per-layer arithmetic once per model, not once per
#: point.  Kept apart from the graph record cache: its key adds the device,
#: backend and batch sweep.
CLEAN_TIME_CACHE: LRUCache[
    tuple[str, str, str, str, str, int, tuple[int, ...]],
    dict[int, tuple[float, ...]],
] = LRUCache(maxsize=512)


def _clean_time_grid(
    spec: CampaignSpec,
    point: SweepPoint,
    profile: CostProfile,
    executor: SimulatedExecutor,
) -> dict[int, tuple[float, ...]]:
    """Cached clean-time components for every batch in the spec's sweep."""
    key = (
        spec.device.name,
        spec.backend,
        spec.scenario,
        spec.transform,
        point.model,
        point.image_size,
        spec.batch_sizes,
    )

    def build() -> dict[int, tuple[float, ...]]:
        return executor.clean_time_grids(
            profile,
            spec.batch_sizes,
            training=spec.scenario == "training",
        )

    return CLEAN_TIME_CACHE.get_or_compute(key, build)


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


def _valid_images(model: str, image_sizes: tuple[int, ...]) -> list[int]:
    min_size = get_entry(model).min_image_size
    return [s for s in image_sizes if s >= min_size]


def enumerate_points(spec: CampaignSpec) -> list[SweepPoint]:
    """Expand a spec into its ordered sweep-point list.

    Only architecture constraints (minimum image size) are applied here;
    memory and runtime-budget gating need a built profile and therefore
    happen inside :func:`execute_point`, where the build is cached.
    """
    points: list[SweepPoint] = []
    if spec.scenario == "blocks":
        catalogue = (
            [b for b in BLOCK_CATALOGUE if b.name in spec.models]
            if spec.models
            else list(BLOCK_CATALOGUE)
        )
        for block in catalogue:
            min_size = get_entry(block.model).min_image_size
            for image in spec.image_sizes:
                if image < min_size:
                    continue
                for batch in spec.batch_sizes:
                    for rep in range(spec.reps):
                        points.append(
                            SweepPoint(
                                spec.scenario, block.name, image, batch,
                                rep=rep,
                            )
                        )
        return points

    node_counts = spec.node_counts if spec.scenario == "distributed" else (1,)
    for nodes in node_counts:
        for model in spec.models:
            for image in _valid_images(model, spec.image_sizes):
                for batch in spec.batch_sizes:
                    for rep in range(spec.reps):
                        points.append(
                            SweepPoint(
                                spec.scenario, model, image, batch,
                                nodes=nodes, rep=rep,
                            )
                        )
    return points


# -- verify-before-measure ---------------------------------------------------

VERIFY_MODES = ("off", "warn", "strict")

#: Cached verification verdicts: a sweep verifies each unique graph once
#: per process.  Kept apart from the graph record cache: verdicts depend on
#: campaign policy (transform, IR007 gate and IR009 edge batch are in the
#: key) and need the graph, which a record does not hold.
VERIFY_CACHE: LRUCache[
    tuple[str, str, int, str, bool, int], tuple[Diagnostic, ...]
] = LRUCache(maxsize=512)


def _verify_with_record(
    graph: ComputeGraph, record: Callable[[], GraphRecord], **kwargs
) -> list[Diagnostic]:
    """Verify ``graph`` against the record the sweep will measure; an
    uncostable graph has none, and IR001–IR004 report why."""
    from repro.analysis.verify import verify_graph

    try:
        r = record()
    except (ValueError, KeyError, TypeError):
        return verify_graph(graph, **kwargs)
    return verify_graph(graph, summary=r.summary, profile=r.profile, **kwargs)


def _verify_graph_cached(
    kind: str,
    name: str,
    image_size: int,
    transform: str = "",
    advise_fusion: bool = False,
    edge_batch: int = 1,
) -> tuple[Diagnostic, ...]:
    def build() -> tuple[Diagnostic, ...]:
        # Imported lazily: repro.analysis pulls in repro.core, which imports
        # this package's records module — a cycle at module-import time.
        from repro.analysis.verify import verify_transform

        # The verified graph instance is the one the sweep measures: its
        # record goes into the slot _measure_point reads, so a verified
        # cold campaign builds and costs each graph once.
        graph = build_graph(kind, name, image_size)
        # IR007 (fold your BatchNorms) is only actionable advice for raw
        # inference sweeps; training needs live BatchNorm and a fused sweep
        # already took the advice.
        found = _verify_with_record(
            graph,
            lambda: graph_record(kind, name, image_size, graph=graph),
            ignore=() if advise_fusion else ("IR007",),
            edge_batch=edge_batch,
        )
        pipeline = resolve_transform(transform)
        if pipeline is not None:
            # PassPipeline.run is memoised, so this is the very graph the
            # fused record is costed from.
            transformed = pipeline.run(graph).graph
            # Both halves of the contract: the rewritten graph is itself a
            # well-formed IR, and the rewrite preserved the semantics.
            # IR009 is skipped on the fused half — one edge-memory advisory
            # per graph is enough.
            found.extend(
                _verify_with_record(
                    transformed,
                    lambda: graph_record(
                        kind, name, image_size, pipeline, graph
                    ),
                    ignore=("IR007", "IR009"),
                )
            )
            found.extend(verify_transform(graph, transformed))
        return tuple(sort_diagnostics(found))

    return VERIFY_CACHE.get_or_compute(
        (kind, name, image_size, transform, advise_fusion, edge_batch), build
    )


def verify_campaign_graphs(spec: CampaignSpec) -> list[Diagnostic]:
    """Verify every unique graph a campaign will measure.

    The verdicts are cached per ``(model, image_size)``.  Verification
    builds each unique graph once and leaves its record (the fused one
    too, for transformed campaigns) in the record cache the sweep reads,
    so the measuring loop neither rebuilds nor re-costs it, and IR004
    checks the very summary the record carries; what verification adds on
    top is the rule work itself.  For transformed campaigns each graph is
    verified twice — raw and after the pipeline — plus the IR008
    preservation check across the pair.
    """
    kind = "block" if spec.scenario == "blocks" else "model"
    advise_fusion = spec.scenario == "inference" and not spec.transform
    unique: dict[tuple[str, int], None] = {}
    for point in enumerate_points(spec):
        unique.setdefault((point.model, point.image_size), None)
    edge_batch = min(spec.batch_sizes)
    found: list[Diagnostic] = []
    for name, image_size in unique:
        found.extend(
            _verify_graph_cached(
                kind, name, image_size, spec.transform, advise_fusion,
                edge_batch=edge_batch,
            )
        )
    return sort_diagnostics(found)


def _run_verification(spec: CampaignSpec, verify: str) -> int:
    """Apply the requested verify mode; returns the ERROR count."""
    if verify not in VERIFY_MODES:
        raise ValueError(
            f"unknown verify mode {verify!r}; one of {VERIFY_MODES}"
        )
    if verify == "off":
        return 0
    diags = verify_campaign_graphs(spec)
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
    return len(errors)


def _point_record(spec: CampaignSpec, point: SweepPoint) -> GraphRecord:
    # Resolving is a memoised lookup ("" resolves to no pipeline); the
    # build+rewrite is memoised under the pipeline fingerprint, so workers
    # and resumed runs share the same cached records as a serial run.
    kind = "block" if spec.scenario == "blocks" else "model"
    pipeline = resolve_transform(spec.transform)
    return graph_record(kind, point.model, point.image_size, pipeline)


def _gated(
    spec: CampaignSpec,
    point: SweepPoint,
    profile: CostProfile,
    backend: ExecutionBackend,
    clean: tuple[float, ...] | None,
) -> str:
    """Why a point is excluded: ``"oom"`` (does not fit device memory),
    ``"budget"`` (over the runtime budget), or ``""`` (measurable).

    Gating depends only on ``(spec, point)``, never on whether the point is
    being measured or traced — which is what makes the per-point OOM
    markers in the store deterministic across workers and resume splits.
    ``clean`` is the point's row of the clean-time grid (forward first,
    backward second for training; ``None`` for distributed points, which
    have no runtime budget)."""
    training = spec.scenario in ("training", "distributed")
    if not backend.fits(profile, point.batch, training=training):
        return "oom"
    if spec.max_seconds is None or clean is None:
        return ""
    estimate = clean[0]
    if spec.scenario == "training":
        estimate += clean[1]
    return "budget" if estimate > spec.max_seconds else ""


def point_counters(
    spec: CampaignSpec,
    point: SweepPoint,
    profile: CostProfile,
    backend: ExecutionBackend,
) -> dict[str, float]:
    """Analytic work counters of one measured point (per-rank quantities).

    Always on — a handful of vectorised sums per point, independent of
    tracing — so campaign stats and store manifests are identical whether
    or not a trace was requested.  Sums the same per-phase accounting the
    span layer records (:func:`~repro.hardware.backend.phase_work`):
    forward work for inference, plus backward/optimizer work for training
    scenarios, plus all-reduce volume when more than one rank
    participates.
    """
    phases = ("forward",)
    if spec.scenario in ("training", "distributed"):
        phases = ("forward", "backward", "grad_update")
    flops = nbytes = 0.0
    for phase in phases:
        f, b = phase_work(profile, point.batch, phase)
        flops += float(f.sum())
        nbytes += float(b.sum())
    counters = {"flops": flops, "bytes": nbytes}
    if spec.scenario == "distributed":
        ranks = point.nodes * spec.gpus_per_node
        grad_bytes = backend.spec.float_bytes * float(
            profile.param_counts[profile.has_params].sum()
        )
        if ranks > 1 and grad_bytes > 0.0:
            counters["allreduce_bytes"] = grad_bytes
    return counters


def _measure_point(
    spec: CampaignSpec,
    point: SweepPoint,
    tracer: "Tracer | None" = None,
) -> tuple[list[TimingRecord], dict[str, float], str]:
    """Measure one sweep point: ``(records, counters, gate_status)``.

    Gated points return ``([], {}, "oom" | "budget")`` — a graceful
    per-point record of *why* nothing was measured, which the store
    persists so e.g. an edge-backend campaign maps its OOM frontier
    instead of crashing.  With a ``tracer``, the measurement is
    additionally wrapped in a ``model`` span with the per-phase/per-layer
    spans the executor and trainer emit; the recorded values are identical
    either way.

    The deterministic clean-time components come from
    :data:`CLEAN_TIME_CACHE` — one batched roofline evaluation per
    ``(model, image_size)`` instead of one per point — and the executor
    skips its memory re-check, since gating already proved the fit.
    """
    record = _point_record(spec, point)
    profile = record.profile
    backend = get_backend(spec.backend, spec.device)
    executor = SimulatedExecutor(seed=spec.seed, backend=backend)
    clean = None
    if spec.scenario != "distributed":
        clean = _clean_time_grid(spec, point, profile, executor)[point.batch]
    gate = _gated(spec, point, profile, backend, clean)
    if gate:
        return [], {}, gate
    tracing = tracer is not None and tracer.enabled
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

    devices = 1
    if spec.scenario in ("inference", "blocks"):
        t = executor.measure_inference(
            profile,
            point.batch,
            rep=point.rep,
            tracer=tracer,
            enforce_memory=False,
            clean_time=clean[0],
        )
        times = (t, 0.0, 0.0)
    elif spec.scenario == "training":
        phases = executor.measure_training_step(
            profile,
            point.batch,
            rep=point.rep,
            tracer=tracer,
            enforce_memory=False,
            clean_times=clean,
        )
        times = (phases.forward, phases.backward, phases.grad_update)
    else:
        cluster = ClusterSpec(
            nodes=point.nodes,
            gpus_per_node=spec.gpus_per_node,
            device=spec.device,
        )
        devices = cluster.total_devices
        phases = DistributedTrainer(
            cluster, seed=spec.seed, backend=backend
        ).measure_step(profile, point.batch, rep=point.rep, tracer=tracer)
        times = (phases.forward, phases.backward, phases.grad_update)

    if tracing:
        tracer.end()
    record = TimingRecord(
        model=point.model,
        device=spec.device.name,
        image_size=point.image_size,
        batch=point.batch,
        nodes=point.nodes,
        devices=devices,
        # Block points are forward passes of a network fragment.
        scenario="inference" if spec.scenario == "blocks" else spec.scenario,
        features=record.features,
        t_fwd=times[0],
        t_bwd=times[1],
        t_grad=times[2],
        rep=point.rep,
        backend=spec.backend,
    )
    return [record], point_counters(spec, point, profile, backend), ""


def execute_point(spec: CampaignSpec, point: SweepPoint) -> list[TimingRecord]:
    """Measure one sweep point; empty list when gated out (OOM / budget).

    Pure in the campaign sense: output depends only on ``(spec, point)``,
    so any execution order, process placement, or resume split yields the
    same records.
    """
    return _measure_point(spec, point)[0]


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
    # Per-point measurement is the tracing contract: every span re-derives
    # from point-identity noise seeding, and batching across points would
    # interleave span streams.  The batchable clean components are already
    # amortised through CLEAN_TIME_CACHE.
    for point in points:
        _measure_point(  # repro-lint: disable=PERF006
            spec, point, tracer=tracer
        )
    tracer.end()


# -- process-pool plumbing ---------------------------------------------------

_WORKER_SPEC: CampaignSpec | None = None


def _init_worker(spec: CampaignSpec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _run_point_task(
    task: tuple[int, SweepPoint]
) -> tuple[int, str, list[TimingRecord], dict[str, float], CacheStats, str]:
    """Executed inside a pool worker; returns per-point counter and cache
    deltas so the parent can aggregate campaign-wide totals across
    processes."""
    index, point = task
    assert _WORKER_SPEC is not None, "worker pool not initialised"
    before = roofline.GRAPH_RECORD_CACHE.stats()
    records, counters, gate = _measure_point(_WORKER_SPEC, point)
    return (
        index, point.key, records, counters,
        roofline.GRAPH_RECORD_CACHE.stats() - before, gate,
    )


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

    ``workers <= 1`` measures in process; larger values fan points out over
    a process pool.  Either way the record stream is identical.  With a
    ``store``, already-recorded points are restored instead of re-measured
    and new results are appended as they complete, making interrupted
    campaigns resumable at point granularity.  ``progress(done, total)`` is
    invoked after each newly measured point.

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
    n_verify_errors = _run_verification(spec, verify)
    points = enumerate_points(spec)
    restored = store.restored_points() if store is not None else {}
    pending = [
        (i, p) for i, p in enumerate(points) if p.key not in restored
    ]

    results: dict[int, list[TimingRecord]] = {}
    counters: dict[str, float] = {}
    cache_delta = CacheStats()
    n_oom = 0
    start = time.perf_counter()
    if workers > 1 and pending:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(spec,),
        ) as pool:
            chunksize = max(1, len(pending) // (workers * 8))
            outcomes = pool.map(_run_point_task, pending, chunksize=chunksize)
            # pool.map yields in submission (= enumeration) order, so the
            # counter floats accumulate identically to a serial run.
            for index, key, records, point_delta, delta, gate in outcomes:
                results[index] = records
                merge_counters(counters, point_delta)
                cache_delta += delta
                n_oom += gate == "oom"
                if store is not None:
                    store.append(key, records, status=gate)
                if progress is not None:
                    progress(len(results), len(pending))
    else:
        # One _measure_point call per point is the determinism contract:
        # noise is seeded from each point's identity, records append in
        # enumeration order, and the store checkpoints between points.
        # The batchable clean components are amortised via the grid cache,
        # not by batching points.
        for index, point in pending:
            before = roofline.GRAPH_RECORD_CACHE.stats()
            records, point_delta, gate = _measure_point(  # repro-lint: disable=PERF006
                spec, point
            )
            cache_delta += roofline.GRAPH_RECORD_CACHE.stats() - before
            results[index] = records
            merge_counters(counters, point_delta)
            n_oom += gate == "oom"
            if store is not None:
                store.append(point.key, records, status=gate)
            if progress is not None:
                progress(len(results), len(pending))
    elapsed = time.perf_counter() - start

    dataset = Dataset()
    for i, point in enumerate(points):
        if point.key in restored:
            dataset.extend(restored[point.key])
        else:
            dataset.extend(results[i])

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
        store.finalize(stats)
    return CampaignResult(dataset=dataset, stats=stats)
