"""Simulated hardware substrate.

Stands in for the paper's measurement testbed (Intel Xeon Gold 5318Y cores,
NVIDIA A100-80GB GPUs).  A roofline execution model with layer-type
efficiencies, utilisation ramps, per-kernel launch overheads, and seeded
multiplicative noise produces "measured" runtimes whose relationship to the
ConvNet metrics is approximately — but deliberately not exactly — linear,
which is the regime ConvMeter's linear regression is designed for.
"""

from repro.hardware.device import (
    A100_80GB,
    DEVICE_PRESETS,
    EPYC_7402_CORE,
    JETSON_ORIN,
    JETSON_ORIN_NANO,
    JETSON_XAVIER_NX,
    XEON_GOLD_5318Y_CORE,
    DeviceSpec,
    get_device,
)
from repro.hardware.backend import (
    BACKEND_REGISTRY,
    BackendSpec,
    ExecutionBackend,
    get_backend,
)
from repro.hardware.roofline import CostProfile, layer_times, profile_graph
from repro.hardware.memory import (
    OutOfDeviceMemory,
    inference_memory_bytes,
    training_memory_bytes,
)
from repro.hardware.executor import PhaseTimes, SimulatedExecutor

__all__ = [
    "DeviceSpec",
    "A100_80GB",
    "XEON_GOLD_5318Y_CORE",
    "EPYC_7402_CORE",
    "JETSON_ORIN",
    "JETSON_ORIN_NANO",
    "JETSON_XAVIER_NX",
    "DEVICE_PRESETS",
    "get_device",
    "BackendSpec",
    "ExecutionBackend",
    "BACKEND_REGISTRY",
    "get_backend",
    "CostProfile",
    "profile_graph",
    "layer_times",
    "OutOfDeviceMemory",
    "inference_memory_bytes",
    "training_memory_bytes",
    "PhaseTimes",
    "SimulatedExecutor",
]
