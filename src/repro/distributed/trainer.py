"""Distributed training-step timeline simulator.

Reproduces the synchronous data-parallel training step of the paper's
Figure 1 on a simulated cluster: each device computes a forward and backward
pass on its mini-batch; gradient tensors become available layer-by-layer as
the backward sweep proceeds (in reverse topological order); Horovod-style
fusion buckets are all-reduced over the ring fabric *concurrently* with the
remaining backward computation; the weight update runs once the last bucket
has been reduced.

The phase times reported mirror what the paper measures: the gradient-update
phase is the part of communication + optimizer work *not hidden* behind the
backward pass, which is why the paper fits backward and gradient update
jointly (Section 3.3).

Execution is backend-pluggable: the trainer accepts an
:class:`~repro.hardware.backend.ExecutionBackend` and applies it across the
cluster, and a :class:`ClusterSpec` with ``node_devices`` simulates a
*heterogeneous* cluster.  Synchronous data parallelism makes every phase a
barrier, so mixed device types follow straggler semantics: each compute
phase (and each backward layer, whose gradient cannot be all-reduced before
every rank has produced it) completes when the slowest node type finishes.
For a homogeneous cluster the straggler maximum ranges over one device type
and the timeline is bit-identical to the pre-backend code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.distributed.allreduce import (
    hierarchical_all_reduce_time,
    ring_all_reduce_time,
)
from repro.distributed.cluster import ClusterSpec
from repro.distributed.fusion import (
    DEFAULT_FUSION_THRESHOLD,
    FusionBucket,
    fuse_tensors,
)
from repro.hardware.backend import ExecutionBackend, get_backend, phase_work
from repro.hardware.executor import (
    PhaseTimes,
    trace_grad_update,
    trace_phase,
)
from repro.hardware.noise import lognormal_factor, lognormal_vector, point_seed
from repro.hardware.roofline import CostProfile

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.trace.tracer import Tracer


#: Fixed per-bucket Horovod negotiation overhead, seconds.
_COORDINATION_BASE = 1.0e-5
#: Additional negotiation cost per participating rank, seconds.
_COORDINATION_PER_RANK = 2.0e-6


@dataclass(frozen=True)
class BucketTrace:
    """Timeline of one fused all-reduce."""

    bucket: FusionBucket
    start: float
    end: float


@dataclass(frozen=True)
class TrainingStepTrace:
    """Full timeline of one simulated distributed training step."""

    phases: PhaseTimes
    #: Per-bucket communication timeline (empty for a single device).
    buckets: tuple[BucketTrace, ...]
    #: Wall time at which the backward compute sweep finished.
    backward_end: float
    #: Wall time at which the last all-reduce finished.
    comm_end: float
    #: Local optimizer (Adam) step time as measured, noise included: the
    #: part of ``phases.grad_update`` after the exposed communication.
    optimizer_time: float

    @property
    def hidden_comm(self) -> float:
        """Communication time overlapped with (hidden behind) backward."""
        total_comm = sum(b.end - b.start for b in self.buckets)
        exposed = max(0.0, self.comm_end - self.backward_end)
        return max(0.0, total_comm - exposed)


class DistributedTrainer:
    """Simulates synchronous data-parallel training steps on a cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        seed: int = 0,
        fusion_threshold: float = DEFAULT_FUSION_THRESHOLD,
        algorithm: str = "ring",
        backend: ExecutionBackend | None = None,
    ) -> None:
        if algorithm not in ("ring", "hierarchical"):
            raise ValueError(f"unknown all-reduce algorithm {algorithm!r}")
        if backend is not None and backend.device != cluster.device:
            raise ValueError(
                f"backend device {backend.device.name!r} disagrees with "
                f"cluster device {cluster.device.name!r}"
            )
        self.cluster = cluster
        self.seed = seed
        self.fusion_threshold = fusion_threshold
        self.algorithm = algorithm
        self.backend = (
            backend if backend is not None
            else get_backend("", cluster.device)
        )
        # One backend per distinct node device type, the primary first —
        # the same backend policy bound to each node's silicon.
        self._node_backends: tuple[ExecutionBackend, ...] = tuple(
            self.backend if dev == cluster.device
            else self.backend.for_device(dev)
            for dev in cluster.distinct_devices()
        )

    def _all_reduce_time(self, nbytes: float) -> float:
        """Noise-free collective time for one fused bucket."""
        if self.algorithm == "hierarchical":
            return hierarchical_all_reduce_time(
                nbytes,
                self.cluster.nodes,
                self.cluster.gpus_per_node,
                self.cluster.intra_node,
                self.cluster.inter_node,
                node_intra=self.cluster.node_intra,
            )
        return ring_all_reduce_time(
            nbytes, self.cluster.total_devices, self.cluster.ring_link
        )

    # -- noise helpers -------------------------------------------------------

    def _sync_sigma(self, base: float) -> float:
        """Noise grows with scale: desynchronised phase starts across devices
        add variance the paper observes in Figure 7."""
        n = self.cluster.total_devices
        return base * (1.0 + 0.35 * np.log2(max(1, n)))

    def _noise(self, sigma: float, *identity: object, tag: str = "") -> float:
        seed = point_seed(
            self.seed,
            tag or self.backend.noise_tag,
            self.cluster.nodes,
            self.cluster.gpus_per_node,
            *identity,
        )
        return lognormal_factor(sigma, seed)

    # -- timeline ------------------------------------------------------------

    def run_step(
        self,
        profile: CostProfile,
        per_device_batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
    ) -> TrainingStepTrace:
        """Simulate one training step with mini-batch ``per_device_batch``.

        With a ``tracer``, emits the step's timeline as spans for one
        representative rank (synchronous data parallelism makes the ranks
        symmetric up to straggler barriers): ``forward`` / ``backward`` /
        ``grad_update`` compute phases with per-layer children, plus one
        ``comm``-track span per fused all-reduce placed at its true offset,
        overlapping the backward sweep exactly as the simulated schedule
        does.
        """
        backends = self._node_backends
        if enforce_memory:
            for b in backends:
                b.check_fits(profile, per_device_batch, training=True)
        n_ranks = self.cluster.total_devices
        name = profile.graph_name
        tracing = tracer is not None
        # Offset of this step within the enclosing span — comm spans are
        # placed at explicit offsets and must not assume they start at 0.
        origin = tracer.elapsed() if tracing else 0.0

        # Forward barrier: every rank must deliver its mini-batch before
        # gradients exist, so the slowest node type sets the phase time.
        # The straggler's backend and noise trace the phase, so its layer
        # spans tile the straggler's total.
        fwd = 0.0
        fwd_noise = 1.0
        fwd_backend = self.backend
        for b in backends:
            b_noise = self._noise(
                self._sync_sigma(b.noise_sigma),
                name, per_device_batch, "fwd", rep,
                tag=b.noise_tag,
            )
            b_fwd = b.forward_time_clean(profile, per_device_batch) * b_noise
            if b_fwd >= fwd:
                fwd, fwd_noise, fwd_backend = b_fwd, b_noise, b
        if tracing:
            trace_phase(
                tracer, fwd_backend, "forward", profile, per_device_batch,
                fwd_noise, fwd,
            )

        # Per-layer backward times, swept in reverse topological order.
        # Each layer's gradient is cluster-complete only when the slowest
        # node type finishes that layer, so mixed clusters take the
        # element-wise maximum of the per-device noisy sweeps.
        bwd_layer_times = None
        for b in backends:
            layer_noisy = b.layer_times(
                profile, per_device_batch, backward=True
            )[::-1] * lognormal_vector(
                self._sync_sigma(b.noise_sigma),
                profile.n_layers,
                point_seed(
                    self.seed, b.noise_tag, n_ranks, name, per_device_batch,
                    "bwd-layers", rep,
                ),
            )
            bwd_layer_times = (
                layer_noisy if bwd_layer_times is None
                else np.maximum(bwd_layer_times, layer_noisy)
            )
        completion = np.cumsum(bwd_layer_times)
        base_overhead = max(b.device.base_overhead for b in backends)
        bwd_end = float(completion[-1]) + base_overhead
        if tracing:
            from repro.trace.tracer import record_layer_phase

            flops, nbytes = phase_work(profile, per_device_batch, "backward")
            record_layer_phase(
                tracer,
                "backward",
                profile.layer_names[::-1],
                bwd_layer_times,
                flops[::-1],
                nbytes[::-1],
                bwd_end,
            )

        # Gradient tensors become ready as their layer's backward completes.
        grad_mask = profile.has_params[::-1]
        grad_sizes = (
            profile.param_counts[::-1][grad_mask]
            * self.backend.spec.float_bytes
        ).tolist()
        grad_ready = completion[grad_mask].tolist()

        buckets: list[BucketTrace] = []
        comm_end = bwd_end

        if n_ranks > 1 and grad_sizes:
            link = self.cluster.ring_link
            fused = fuse_tensors(grad_sizes, grad_ready, self.fusion_threshold)
            # Horovod negotiates each fused all-reduce through its
            # coordinator, a cost that grows with the number of ranks — the
            # physical origin of the paper's c3·N gradient-update term.
            coordination = _COORDINATION_BASE + _COORDINATION_PER_RANK * n_ranks
            comm_cursor = 0.0
            for i, bucket in enumerate(fused):
                start = max(bucket.ready_time, comm_cursor)
                duration = (
                    self._all_reduce_time(bucket.nbytes) + coordination
                ) * self._noise(
                    link.noise_sigma, name, per_device_batch, "comm", i, rep
                )
                end = start + duration
                buckets.append(BucketTrace(bucket, start, end))
                comm_cursor = end
            comm_end = max(bwd_end, comm_cursor)

        exposed_comm = max(0.0, comm_end - bwd_end)
        # Optimizer barrier: the step ends when the slowest node type has
        # applied its update.
        opt_noisy = max(
            b.grad_update_time_clean(profile)
            * self._noise(
                b.noise_sigma, name, per_device_batch, "opt", rep,
                tag=b.noise_tag,
            )
            for b in backends
        )
        grad_phase = exposed_comm + opt_noisy

        if tracing:
            # All-reduces overlap the backward sweep; place them on the comm
            # track at their simulated offsets within this step.
            for i, b in enumerate(buckets):
                tracer.add_at(
                    f"allreduce[{i}]",
                    origin + fwd + b.start,
                    b.end - b.start,
                    category="comm",
                    track="comm",
                    attrs={"bytes": b.bucket.nbytes, "ranks": n_ranks},
                )
                tracer.count("allreduce_bytes", b.bucket.nbytes)
            trace_grad_update(tracer, profile, opt_noisy, exposed_comm)

        phases = PhaseTimes(
            forward=fwd, backward=bwd_end, grad_update=grad_phase
        )
        return TrainingStepTrace(
            phases=phases,
            buckets=tuple(buckets),
            backward_end=bwd_end,
            comm_end=comm_end,
            optimizer_time=opt_noisy,
        )

    def measure_step(
        self,
        profile: CostProfile,
        per_device_batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
    ) -> PhaseTimes:
        """Phase times only — the record the campaign stores."""
        return self.run_step(
            profile, per_device_batch, rep, enforce_memory, tracer=tracer
        ).phases
