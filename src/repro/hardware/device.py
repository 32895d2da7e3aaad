"""Device specifications for the roofline execution model.

The presets correspond to the processors in the paper's experimental setup
(Section 4): a single Intel Xeon Gold 5318Y core, a single NVIDIA A100-80GB,
and an AMD EPYC 7402 core for the cluster nodes.  Numbers are public
datasheet figures; what matters for the reproduction is not their absolute
accuracy but that the CPU and GPU sit at very different compute/bandwidth
balances, so the fitted ConvMeter coefficients differ per platform the same
way they do in the paper.

The execution-backend rows (:class:`BackendSpec`,
:data:`BACKEND_REGISTRY`) are pure data over these presets and live here
too, so the CLI parser reads its ``--device``/``--backend`` choices from
this stdlib-only module; :mod:`repro.hardware.backend` binds a row to a
device.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one compute device for the roofline model."""

    name: str
    #: "cpu" or "gpu"; drives layer-type efficiency tables.
    kind: str
    #: Peak single-precision throughput, FLOP/s.
    peak_flops: float
    #: Peak DRAM bandwidth, bytes/s.
    mem_bandwidth: float
    #: Fixed per-kernel dispatch cost, seconds (CUDA launch / op dispatch).
    launch_overhead: float
    #: Device memory capacity, bytes.
    memory_bytes: float
    #: FLOPs of work at which compute utilisation reaches half of peak.
    #: Models the underutilisation of wide devices on small kernels that the
    #: paper observes for small batch/image sizes on the A100.
    sat_flops: float
    #: Bytes of traffic at which bandwidth utilisation reaches half of peak.
    sat_bytes: float
    #: Fixed per-invocation framework overhead, seconds.
    base_overhead: float
    #: Log-normal sigma of the measurement noise.
    noise_sigma: float
    #: Numeric formats the hardware executes natively; gates which
    #: mixed-precision backends accept the device.
    precision_modes: tuple[str, ...] = ("fp32",)

    def scaled(
        self,
        name: str,
        flops: float = 1.0,
        bandwidth: float = 1.0,
        memory: float = 1.0,
        launch: float = 1.0,
    ) -> "DeviceSpec":
        """Derive a hypothetical device by scaling this one's capabilities.

        The what-if tool behind infrastructure planning: "would 2x the
        memory bandwidth help this workload?" becomes a derived preset the
        whole pipeline (campaign → fit → predict) runs against unchanged.
        """
        from dataclasses import replace

        if min(flops, bandwidth, memory, launch) <= 0:
            raise ValueError("scale factors must be positive")
        return replace(
            self,
            name=name,
            peak_flops=self.peak_flops * flops,
            mem_bandwidth=self.mem_bandwidth * bandwidth,
            memory_bytes=self.memory_bytes * memory,
            launch_overhead=self.launch_overhead * launch,
        )

    def compute_utilisation(self, flops: float) -> float:
        """Fraction of peak compute achievable for a kernel of this size."""
        return flops / (flops + self.sat_flops)

    def bandwidth_utilisation(self, nbytes: float) -> float:
        """Fraction of peak bandwidth achievable for a transfer of this size."""
        return nbytes / (nbytes + self.sat_bytes)


#: NVIDIA A100 80GB (SXM): 19.5 TFLOP/s fp32, ~2.0 TB/s HBM2e.
A100_80GB = DeviceSpec(
    name="a100-80gb",
    kind="gpu",
    peak_flops=19.5e12,
    mem_bandwidth=1.9e12,
    launch_overhead=2.5e-6,
    memory_bytes=80e9,
    sat_flops=3.0e7,
    sat_bytes=1.5e6,
    base_overhead=30e-6,
    noise_sigma=0.06,
    precision_modes=("fp32", "fp16", "bf16"),
)

#: One core of an Intel Xeon Gold 5318Y (Ice Lake, 2.1 GHz, AVX-512).
XEON_GOLD_5318Y_CORE = DeviceSpec(
    name="xeon-gold-5318y-core",
    kind="cpu",
    peak_flops=67.2e9,
    mem_bandwidth=18e9,
    launch_overhead=8.0e-7,
    memory_bytes=256e9,
    sat_flops=2.0e5,
    sat_bytes=6.0e4,
    base_overhead=10e-6,
    noise_sigma=0.10,
)

#: One core of an AMD EPYC 7402 (Rome, 2.8 GHz, AVX2) — the cluster host CPU.
EPYC_7402_CORE = DeviceSpec(
    name="epyc-7402-core",
    kind="cpu",
    peak_flops=44.8e9,
    mem_bandwidth=16e9,
    launch_overhead=9.0e-7,
    memory_bytes=256e9,
    sat_flops=2.0e5,
    sat_bytes=6.0e4,
    base_overhead=10e-6,
    noise_sigma=0.10,
)

#: An embedded/edge-class GPU (Jetson AGX Orin scale) — the platform class
#: the paper's outlook targets ("we aim to study edge processors").  Low
#: peak, low bandwidth, shared LPDDR memory, cheap kernel launches.
JETSON_ORIN = DeviceSpec(
    name="jetson-agx-orin",
    kind="gpu",
    peak_flops=2.6e12,
    mem_bandwidth=200e9,
    launch_overhead=6.0e-6,
    memory_bytes=32e9,
    sat_flops=5.0e6,
    sat_bytes=4.0e5,
    base_overhead=50e-6,
    noise_sigma=0.09,
    precision_modes=("fp32", "fp16", "bf16"),
)

#: Jetson Xavier NX: Volta-class edge module, 8 GB shared LPDDR4x.
JETSON_XAVIER_NX = DeviceSpec(
    name="jetson-xavier-nx",
    kind="gpu",
    peak_flops=0.84e12,
    mem_bandwidth=59.7e9,
    launch_overhead=7.0e-6,
    memory_bytes=8e9,
    sat_flops=2.0e6,
    sat_bytes=2.0e5,
    base_overhead=60e-6,
    noise_sigma=0.10,
    precision_modes=("fp32", "fp16"),
)

#: Jetson Orin Nano: the smallest Orin-family module, 8 GB shared LPDDR5.
JETSON_ORIN_NANO = DeviceSpec(
    name="jetson-orin-nano",
    kind="gpu",
    peak_flops=0.64e12,
    mem_bandwidth=68e9,
    launch_overhead=7.0e-6,
    memory_bytes=8e9,
    sat_flops=2.0e6,
    sat_bytes=2.0e5,
    base_overhead=60e-6,
    noise_sigma=0.10,
    precision_modes=("fp32", "fp16", "bf16"),
)

DEVICE_PRESETS: dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (A100_80GB, XEON_GOLD_5318Y_CORE, EPYC_7402_CORE,
                 JETSON_ORIN, JETSON_XAVIER_NX, JETSON_ORIN_NANO)
}


@dataclass(frozen=True)
class BackendSpec:
    """Execution-backend registry row: the constants that make one
    platform differ (bound to a device by
    :func:`repro.hardware.backend.get_backend`)."""

    name: str
    #: Backend family reported by ``ExecutionBackend.capabilities``.
    kind: str
    summary: str
    default_device: DeviceSpec
    #: Working datatype of activations/weights during compute phases.
    precision: str = "fp32"
    #: Bytes per element of the working datatype.
    float_bytes: float = 4.0
    #: im2col / cuDNN workspace as a fraction of the largest live pair.
    workspace_fraction: float = 0.1
    #: Multiplier on the device's measurement-noise sigma.
    noise_scale: float = 1.0
    #: Noise-stream tag prefix; ``""`` tags with the bare device name (the
    #: historical stream), anything else with ``"<prefix>:<device>"`` so
    #: the backend's draws are decorrelated from the default family's.
    noise_prefix: str = ""
    #: ``(flops, bandwidth)`` scale of the device view compute phases run on.
    compute_scale: tuple[float, float] = (1.0, 1.0)
    #: Same for the optimizer step, which updates fp32 master state.
    optimizer_scale: tuple[float, float] = (1.0, 1.0)
    #: Device memory unavailable to the framework (e.g. unified LPDDR
    #: shared with the OS).
    reserved_bytes: float = 0.0
    #: Device kind the backend requires (``""`` = any).
    device_kind: str = ""


#: Name → platform constants.  ``"roofline"`` is the default everywhere a
#: backend name is optional; an empty name resolves to it.
BACKEND_REGISTRY: dict[str, BackendSpec] = {
    "roofline": BackendSpec(
        name="roofline",
        kind="roofline",
        summary="datacenter roofline simulator (default)",
        default_device=A100_80GB,
    ),
    # perf4sight: ~2 GB of a Jetson's nominal LPDDR is held by the OS,
    # desktop and CUDA context; memory-tight boards pick workspace-hungry
    # cuDNN algorithms; sustained clocks under the default power budget
    # sit at 85 % (compute) / 90 % (LPDDR) of peak, for the optimizer too;
    # DVFS and thermal throttling add measurement variance.
    "edge": BackendSpec(
        name="edge",
        kind="edge",
        summary="memory-constrained edge GPU (Jetson class, perf4sight)",
        default_device=JETSON_ORIN,
        workspace_fraction=0.25,
        noise_scale=1.25,
        noise_prefix="edge",
        compute_scale=(0.85, 0.90),
        optimizer_scale=(0.85, 0.90),
        reserved_bytes=2.0e9,
        device_kind="gpu",
    ),
    # Half-width elements double the compute roofline (vector units retire
    # twice the elements per cycle) and the effective bandwidth roofline
    # (half the bytes per element).  The optimizer keeps fp32 master
    # weights and moments, so it runs at native rates and training-state
    # memory does not shrink — only activations do.
    "fp16": BackendSpec(
        name="fp16",
        kind="mixed-precision",
        summary="mixed precision: fp16 compute over fp32 master state",
        default_device=A100_80GB,
        precision="fp16",
        float_bytes=2.0,
        noise_prefix="fp16",
        compute_scale=(2.0, 2.0),
    ),
    "bf16": BackendSpec(
        name="bf16",
        kind="mixed-precision",
        summary="mixed precision: bf16 compute over fp32 master state",
        default_device=A100_80GB,
        precision="bf16",
        float_bytes=2.0,
        noise_prefix="bf16",
        compute_scale=(2.0, 2.0),
    ),
}


def get_device(name: str) -> DeviceSpec:
    try:
        return DEVICE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; presets: {', '.join(DEVICE_PRESETS)}"
        ) from None
