"""Simulated hardware substrate.

Stands in for the paper's measurement testbed (Intel Xeon Gold 5318Y cores,
NVIDIA A100-80GB GPUs).  A roofline execution model with layer-type
efficiencies, utilisation ramps, per-kernel launch overheads, and seeded
multiplicative noise produces "measured" runtimes whose relationship to the
ConvNet metrics is approximately — but deliberately not exactly — linear,
which is the regime ConvMeter's linear regression is designed for.

The names below resolve on first access (PEP 562), so reading the device
presets or the backend registry (:mod:`repro.hardware.device`, stdlib
only) does not import the numpy simulator.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DeviceSpec": "device",
    "A100_80GB": "device",
    "XEON_GOLD_5318Y_CORE": "device",
    "EPYC_7402_CORE": "device",
    "JETSON_ORIN": "device",
    "JETSON_ORIN_NANO": "device",
    "JETSON_XAVIER_NX": "device",
    "DEVICE_PRESETS": "device",
    "get_device": "device",
    "BackendSpec": "device",
    "BACKEND_REGISTRY": "device",
    "ExecutionBackend": "backend",
    "get_backend": "backend",
    "CostProfile": "roofline",
    "profile_graph": "roofline",
    "layer_times": "roofline",
    "OutOfDeviceMemory": "memory",
    "inference_memory_bytes": "memory",
    "training_memory_bytes": "memory",
    "PhaseTimes": "executor",
    "SimulatedExecutor": "executor",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
