"""Device-memory footprint model and out-of-memory gating.

The paper's campaign runs configurations "as long as the available memory on
the target system allows" (Section 4) and explicitly predicts batch sizes
*beyond* device memory (Section 4.3, Figure 9).  The simulator therefore
needs the same asymmetry: measurements are memory-gated, predictions are
not.
"""

from __future__ import annotations

from repro.hardware.device import DeviceSpec
from repro.hardware.roofline import CostProfile

_FLOAT = 4  # float32 bytes

#: Adam keeps parameters, gradients, and two moment buffers resident.
_ADAM_STATE_COPIES = 4

#: Fragmentation / allocator / framework reserve headroom.
_HEADROOM = 0.90


class OutOfDeviceMemory(RuntimeError):
    """Raised when a configuration does not fit on the device."""

    def __init__(self, needed: float, available: float, what: str) -> None:
        super().__init__(
            f"{what} needs {needed / 1e9:.2f} GB but device has "
            f"{available / 1e9:.2f} GB"
        )
        self.needed = needed
        self.available = available


def inference_memory_bytes(
    profile: CostProfile,
    batch: int,
    float_bytes: float = _FLOAT,
    workspace_fraction: float = 0.1,
) -> float:
    """Footprint of a forward pass: weights + the two largest live tensors.

    Inference frees each activation once consumed, so the high-water mark is
    approximately the largest producer/consumer pair, not the sum.
    ``float_bytes`` is the element width of the working datatype (2 for
    mixed precision); ``workspace_fraction`` the im2col / cuDNN workspace
    charged against the largest pair (edge backends charge more).
    """
    weights = profile.total_params * float_bytes
    if profile.n_layers == 0:
        return weights
    act = profile.output_elems * (batch * float_bytes)
    largest_pair = float(act.max()) * 2.0
    return weights + largest_pair + workspace_fraction * largest_pair


def training_memory_bytes(
    profile: CostProfile, batch: int, float_bytes: float = _FLOAT
) -> float:
    """Footprint of a training step.

    Every activation is retained for the backward pass at ``float_bytes``
    per element.  Optimizer state is always full precision: Adam keeps
    _ADAM_STATE_COPIES fp32 copies of the parameters — for mixed precision
    the fp16 weight/grad copies plus fp32 master and moments land on the
    same 16 bytes per parameter, so reduced precision shrinks activations
    only.
    """
    weights = profile.total_params * _FLOAT * _ADAM_STATE_COPIES
    activations = float(profile.output_elems.sum()) * batch * float_bytes
    return weights + activations


def check_fits(
    profile: CostProfile, batch: int, device: DeviceSpec, training: bool
) -> None:
    """Raise :class:`OutOfDeviceMemory` if the configuration cannot run.

    Checked under the default roofline accounting; other platforms gate
    through :meth:`repro.hardware.backend.ExecutionBackend.check_fits`.
    """
    from repro.hardware.backend import get_backend

    get_backend("", device).check_fits(profile, batch, training)


def fits(
    profile: CostProfile, batch: int, device: DeviceSpec, training: bool
) -> bool:
    """Boolean form of :func:`check_fits` for campaign filtering."""
    from repro.hardware.backend import get_backend

    return get_backend("", device).fits(profile, batch, training)
