"""Execution backends: one simulator, a table of platform constants.

An :class:`ExecutionBackend` is everything about a simulated platform that
is *policy* rather than graph structure — capability description,
per-layer phase timing, memory accounting, and measurement noise — so a
hardware scenario runs the whole pipeline (campaign → fit → predict →
serve) unchanged.  Backends differ only in a handful of constants, so a
backend is a :class:`~repro.hardware.device.BackendSpec` row of
:data:`~repro.hardware.device.BACKEND_REGISTRY` (pure data, kept beside the
device presets) bound to a device, not a class.  Four rows ship:

``roofline``
    The datacenter-GPU/CPU simulator.  Its noise tag is the bare device
    name, so every seeded draw matches the historical stream byte for byte.

``edge``
    Jetson-class edge GPUs in the style of perf4sight (arXiv:2108.05580):
    unified LPDDR memory shared with the OS (a fixed reserved carve-out),
    relatively larger cuDNN workspaces, sustained (thermally limited)
    rather than peak clocks, and noisier measurements.  Memory-constrained
    OOM behavior dominates: campaigns record OOM points gracefully instead
    of crashing.

``fp16`` / ``bf16``
    Mixed-precision execution ("Toward Accurate Platform-Aware Performance
    Modeling for DNNs", arXiv:2012.00211): half-width activations and
    weights scale both the compute roofline (wide ALUs / tensor pipes) and
    the effective bandwidth roofline (half the bytes per element), while
    the optimizer keeps an fp32 master copy, so training-state memory does
    not shrink — only activations do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.hardware import memory as memory_model
from repro.hardware.device import (
    BACKEND_REGISTRY,
    DEVICE_PRESETS,
    BackendSpec,
    DeviceSpec,
)
from repro.hardware.noise import lognormal_factor, point_seed, point_seeds
from repro.hardware.roofline import CostProfile, layer_times

#: Backward FLOPs of a parametric layer ≈ 2× forward (input-gradient plus
#: weight-gradient GEMMs); non-parametric layers only propagate gradients.
_BWD_FLOPS_PARAM = 2.0
_BWD_FLOPS_OTHER = 1.0

#: Backward activation traffic: read stored activations and gradients, write
#: gradients — roughly double the forward traffic.
_BWD_BYTES_FACTOR = 2.0

#: Adam update: ~10 FLOPs and ~16 bytes of state traffic per parameter.
_OPT_FLOPS_PER_PARAM = 10.0
_OPT_BYTES_PER_PARAM = 16.0

#: Kernels launched per parameter tensor during the optimizer step.
_OPT_KERNELS_PER_TENSOR = 2.0


def _phase_factors(profile: CostProfile, backward: bool):
    """``(flops_factor, bytes_factor)`` of a forward or backward sweep."""
    if not backward:
        return 1.0, 1.0
    flops = np.where(profile.has_params, _BWD_FLOPS_PARAM, _BWD_FLOPS_OTHER)
    return flops, _BWD_BYTES_FACTOR


def phase_work(
    profile: CostProfile, batch: int, phase: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-layer FLOPs and bytes of one training-step phase at ``batch``.

    ``phase`` is ``"forward"``, ``"backward"`` or ``"grad_update"`` (the
    Adam step, which does not depend on ``batch``); arrays are in
    topological order.  The single source of the work accounting that
    executor tracing, trainer tracing and the campaign's work counters
    all report.
    """
    if phase == "grad_update":
        return (
            _OPT_FLOPS_PER_PARAM * profile.param_counts,
            _OPT_BYTES_PER_PARAM * profile.param_counts,
        )
    flops_factor, bytes_factor = _phase_factors(profile, phase == "backward")
    return (
        profile.flops * (batch * flops_factor),
        profile.act_bytes * (batch * bytes_factor) + profile.weight_bytes,
    )


def _view(device: DeviceSpec, scale: tuple[float, float]) -> DeviceSpec:
    if scale == (1.0, 1.0):
        return device
    return device.scaled(name=device.name, flops=scale[0], bandwidth=scale[1])


@dataclass(frozen=True)
class ExecutionBackend:
    """One simulated execution platform: a :class:`BackendSpec` on a device.

    Invariant relied on by the byte-identity suites: for the roofline row,
    :attr:`noise_tag` equals ``device.name`` exactly, so seeded noise draws
    reproduce the historical stream.
    """

    device: DeviceSpec
    spec: BackendSpec
    #: The device the roofline divides by during compute phases.
    timing_device: DeviceSpec = field(init=False, repr=False, compare=False)
    #: Device view for the optimizer step.
    optimizer_device: DeviceSpec = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        spec, device = self.spec, self.device
        if spec.device_kind and device.kind != spec.device_kind:
            raise ValueError(
                f"{spec.name} backend models {spec.device_kind.upper()}s, "
                f"got {device.name!r} (kind={device.kind!r})"
            )
        if spec.precision not in device.precision_modes:
            raise ValueError(
                f"device {device.name!r} does not support {spec.precision} "
                f"(modes: {', '.join(device.precision_modes)})"
            )
        object.__setattr__(
            self, "timing_device", _view(device, spec.compute_scale)
        )
        object.__setattr__(
            self, "optimizer_device", _view(device, spec.optimizer_scale)
        )

    def for_device(self, device: DeviceSpec) -> "ExecutionBackend":
        """The same backend policy bound to a different device.

        Heterogeneous clusters use this to apply one backend family across
        mixed per-node device types.
        """
        return replace(self, device=device)

    # -- identity ------------------------------------------------------------

    @property
    def noise_tag(self) -> str:
        """Seed component identifying this backend's noise stream."""
        prefix = self.spec.noise_prefix
        return f"{prefix}:{self.device.name}" if prefix else self.device.name

    @property
    def noise_sigma(self) -> float:
        return self.device.noise_sigma * self.spec.noise_scale

    def noise_factor(self, campaign_seed: int, *identity: object) -> float:
        """One seeded multiplicative noise draw for a measurement identity."""
        seed = point_seed(campaign_seed, self.noise_tag, *identity)
        return lognormal_factor(self.noise_sigma, seed)

    def noise_factors(
        self,
        campaign_seed: int,
        identities: "list[tuple]",
        shared: "list[tuple]",
    ) -> np.ndarray:
        """The :meth:`noise_factor` draws of many identities under each
        prefix in ``shared``, in one batched call: element ``[p, i]``
        equals ``noise_factor(campaign_seed, *shared[p], *identities[i])``
        bit for bit.  Each prefix — the campaign seed, the noise tag and
        its ``shared`` parts — is hashed once and each identity encoded
        once
        (:func:`~repro.hardware.noise.point_seeds`); every seed then goes
        through one :func:`~repro.hardware.noise.lognormal_factor` call."""
        tag = self.noise_tag
        seeds = point_seeds(
            campaign_seed, [(tag, *parts) for parts in shared], identities
        )
        return lognormal_factor(self.noise_sigma, seeds.ravel()).reshape(
            seeds.shape
        )

    # -- timing --------------------------------------------------------------

    def layer_times(
        self, profile: CostProfile, batch, backward: bool = False
    ) -> np.ndarray:
        """Per-layer roofline times of a forward (or backward) sweep.

        ``batch`` may be an array of batch sizes, giving one row per batch.
        """
        flops_factor, bytes_factor = _phase_factors(profile, backward)
        return layer_times(
            profile,
            batch,
            self.timing_device,
            flops_factor=flops_factor,
            bytes_factor=bytes_factor,
        )

    def forward_time_clean(self, profile: CostProfile, batch: int) -> float:
        """Deterministic forward-pass time (also the inference time)."""
        times = self.layer_times(profile, batch)
        return float(times.sum()) + self.device.base_overhead

    def backward_time_clean(self, profile: CostProfile, batch: int) -> float:
        """Deterministic backward-pass time."""
        times = self.layer_times(profile, batch, backward=True)
        return float(times.sum()) + self.device.base_overhead

    def grad_update_time_clean(self, profile: CostProfile) -> float:
        """Deterministic single-device optimizer (Adam) step time.

        Per-tensor kernel launches dominate for deep networks, which is why
        the paper models the N=1 gradient update as ``c1 · L``.  Runs on
        :attr:`optimizer_device`: mixed-precision backends update fp32
        master weights at native (unboosted) rates.
        """
        dev = self.optimizer_device
        params = profile.param_counts[profile.has_params]
        if params.size == 0:
            return dev.base_overhead
        launch = _OPT_KERNELS_PER_TENSOR * params.size * dev.launch_overhead
        traffic = _OPT_BYTES_PER_PARAM * float(params.sum())
        compute = _OPT_FLOPS_PER_PARAM * float(params.sum())
        stream = max(
            traffic / (dev.mem_bandwidth * 0.8),
            compute / (dev.peak_flops * 0.05),
        )
        return launch + stream + dev.base_overhead

    def clean_time_grids(
        self,
        profiles: "Sequence[CostProfile]",
        batches: "tuple[int, ...] | list[int]",
        training: bool = False,
    ) -> "tuple[dict[int, tuple[float, ...]], ...]":
        """Clean-time components for a whole batch sweep of each of one
        topology's ``profiles`` (one layer list), in one shot.

        Returns one ``{batch: (forward,)}`` per profile — or, with
        ``training=True``, ``{batch: (forward, backward, grad_update)}`` —
        from a single batched :meth:`layer_times` evaluation per phase over
        images × batches × layers (:meth:`CostProfile.stack`) instead of
        one per image and batch size.  Each component is bit-identical to
        the corresponding ``*_time_clean`` call at that batch: the batch
        axis only broadcasts, the per-layer sums reduce in the same order,
        and the base overhead adds as the same float64 pair.
        """
        stacked = CostProfile.stack(profiles)
        b = np.asarray(batches)
        base = self.device.base_overhead
        phases = [self.layer_times(stacked, b).sum(axis=-1) + base]
        if training:
            phases.append(
                self.layer_times(stacked, b, backward=True).sum(axis=-1)
                + base
            )
        # [image][batch] -> the batch's components
        rows = np.stack(phases, axis=-1).tolist()
        if training:
            for p, image_rows in zip(profiles, rows):
                grad = self.grad_update_time_clean(p)
                for times in image_rows:
                    times.append(grad)
        return tuple(
            {int(n): tuple(times) for n, times in zip(batches, image_rows)}
            for image_rows in rows
        )

    # -- memory accounting ---------------------------------------------------

    def inference_memory_bytes(self, profile: CostProfile, batch: int) -> float:
        return memory_model.inference_memory_bytes(
            profile,
            batch,
            float_bytes=self.spec.float_bytes,
            workspace_fraction=self.spec.workspace_fraction,
        )

    def training_memory_bytes(self, profile: CostProfile, batch: int) -> float:
        return memory_model.training_memory_bytes(
            profile, batch, float_bytes=self.spec.float_bytes
        )

    def memory_available(self) -> float:
        """Usable device memory after headroom and reserved carve-outs."""
        usable = (
            self.device.memory_bytes * memory_model._HEADROOM
            - self.spec.reserved_bytes
        )
        return max(0.0, usable)

    def check_fits(
        self, profile: CostProfile, batch: int, training: bool
    ) -> None:
        """Raise :class:`~repro.hardware.memory.OutOfDeviceMemory` if the
        configuration cannot run on this backend."""
        needed = (
            self.training_memory_bytes(profile, batch)
            if training
            else self.inference_memory_bytes(profile, batch)
        )
        available = self.memory_available()
        if needed > available:
            mode = "training step" if training else "inference"
            raise memory_model.OutOfDeviceMemory(
                needed, available, f"{profile.graph_name} batch={batch} {mode}"
            )

    def fits(self, profile: CostProfile, batch: int, training: bool) -> bool:
        """Boolean form of :meth:`check_fits` for campaign filtering."""
        try:
            self.check_fits(profile, batch, training)
        except memory_model.OutOfDeviceMemory:
            return False
        return True

    # -- description ---------------------------------------------------------

    def capabilities(self) -> dict:
        """Capability row for ``repro devices`` and the serve layer."""
        t = self.timing_device
        return {
            "backend": self.spec.kind,
            "device": self.device.name,
            "device_kind": self.device.kind,
            "precision": self.spec.precision,
            "peak_flops": t.peak_flops,
            "mem_bandwidth": t.mem_bandwidth,
            "memory_bytes": self.device.memory_bytes,
            "memory_available_bytes": self.memory_available(),
            "precision_modes": list(self.device.precision_modes),
            "noise_sigma": self.noise_sigma,
        }


# -- registry ----------------------------------------------------------------

DEFAULT_BACKEND = "roofline"

#: Jetson-class presets the edge backend ships with (smallest last so the
#: OOM boundary tests walk a descending memory cliff).
EDGE_DEVICE_NAMES: tuple[str, ...] = (
    "jetson-agx-orin",
    "jetson-xavier-nx",
    "jetson-orin-nano",
)


def get_backend(
    name: str = "", device: DeviceSpec | None = None
) -> ExecutionBackend:
    """Bind a registered backend to ``device`` (default: the row's device).

    An empty name means the default roofline.
    """
    key = name or DEFAULT_BACKEND
    try:
        spec = BACKEND_REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(BACKEND_REGISTRY)}"
        ) from None
    return ExecutionBackend(
        device if device is not None else spec.default_device, spec
    )


def edge_backends() -> tuple[ExecutionBackend, ...]:
    """One edge backend per shipped Jetson-class preset (for IR009)."""
    return tuple(
        get_backend("edge", DEVICE_PRESETS[name]) for name in EDGE_DEVICE_NAMES
    )
