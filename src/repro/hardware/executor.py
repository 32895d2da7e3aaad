"""Single-device simulated executor.

Produces the "measured" runtimes the campaign records: inference time and
the three training-step phases of Figure 1 (forward pass, backward pass,
weight/gradient update) on one device.  Distributed runs build on this via
:mod:`repro.distributed.trainer`.

All platform policy — timing formulas, memory accounting, noise streams —
lives in an :class:`~repro.hardware.backend.ExecutionBackend`; this class
adds the seeded noise draws on top.  Constructed with a bare
:class:`DeviceSpec` it uses the default roofline backend.

:meth:`SimulatedExecutor.measure_inference` and
:meth:`~SimulatedExecutor.measure_training_step` measure one point: each
phase's clean time times its own noise draw.  That product is the
definition.  A campaign takes the same products a whole batch sweep at a
time: :meth:`~SimulatedExecutor.clean_time_grids` and
:meth:`~SimulatedExecutor.noise_grids` give the sweep's clean times and
draws, and :mod:`repro.benchdata.engine` multiplies the two arrays (the
same float64 multiply per element, so the same bits).

The span emitters are module functions (:func:`trace_measurement` and its
:func:`trace_phase` / :func:`trace_grad_update`), so the engine and the
distributed trainer emit the spans of their own times the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.hardware.backend import ExecutionBackend, get_backend, phase_work
from repro.hardware.device import DeviceSpec
from repro.hardware.roofline import CostProfile

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.trace.tracer import Tracer

__all__ = [
    "PhaseTimes",
    "SimulatedExecutor",
    "trace_grad_update",
    "trace_measurement",
    "trace_phase",
]

#: Phase tags of a measurement's noise identities: one draw per training
#: step phase, one per inference.
_STEP_TAGS = ("fwd", "bwd", "grad")
_INFERENCE_TAG = "inference"


@dataclass(frozen=True)
class PhaseTimes:
    """Per-phase wall time of one training step, seconds."""

    forward: float
    backward: float
    grad_update: float

    @property
    def total(self) -> float:
        return self.forward + self.backward + self.grad_update

    @property
    def backward_plus_update(self) -> float:
        """The overlapped phase the paper fits jointly (Section 3.3)."""
        return self.backward + self.grad_update


class SimulatedExecutor:
    """Runs graphs on one simulated backend and reports noisy timings."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        seed: int = 0,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if backend is None:
            if device is None:
                raise ValueError("need a device or a backend")
            backend = get_backend("", device)
        elif device is not None and device != backend.device:
            raise ValueError(
                f"device {device.name!r} disagrees with backend device "
                f"{backend.device.name!r}; pass one or the other"
            )
        self.backend = backend
        self.device = backend.device
        self.seed = seed

    def _noise(self, *identity: object) -> float:
        # Seeded purely by the measurement identity (never call order), so
        # parallel and resumed campaigns reproduce serial timings exactly.
        return self.backend.noise_factor(self.seed, *identity)

    def clean_time_grids(
        self,
        profiles: "Sequence[CostProfile]",
        batches: "tuple[int, ...] | list[int]",
        training: bool = False,
    ) -> "tuple[dict[int, tuple[float, ...]], ...]":
        """Clean-time components for a whole batch sweep of each of one
        topology's profiles, in one shot.

        See :meth:`ExecutionBackend.clean_time_grids`; each component is
        bit-identical to the corresponding ``*_time_clean`` call.
        """
        return self.backend.clean_time_grids(profiles, batches, training)

    def noise_grids(
        self,
        profiles: "Sequence[CostProfile]",
        batches: "tuple[int, ...] | list[int]",
        reps: int,
        training: bool = False,
    ) -> np.ndarray:
        """Every noise factor of a batch × rep sweep of each profile (say,
        a model's images), in one batched draw.

        Shape ``(len(profiles), len(batches), reps, phases)``: the
        ``fwd``/``bwd``/``grad`` draws of :meth:`measure_training_step`
        with ``training=True``, else the one draw of
        :meth:`measure_inference`.  Each factor is bit-identical to the
        draw that method makes for its point.
        """
        tags = _STEP_TAGS if training else (_INFERENCE_TAG,)
        identities = [
            (batch, tag, rep)
            for batch in batches
            for rep in range(reps)
            for tag in tags
        ]
        factors = self.backend.noise_factors(
            self.seed, identities, [(p.graph_name,) for p in profiles]
        )
        return factors.reshape(len(profiles), len(batches), reps, len(tags))

    # -- measurements --------------------------------------------------------

    def measure_inference(
        self,
        profile: CostProfile,
        batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
    ) -> float:
        """One noisy inference measurement, seconds: the clean forward
        time times the point's seeded noise draw.

        With a ``tracer``, emits a ``forward`` phase span whose per-layer
        children sum exactly to the returned time; the measurement itself
        is unchanged (tracing never perturbs the noise stream).
        """
        if enforce_memory:
            self.backend.check_fits(profile, batch, training=False)
        noise = self._noise(profile.graph_name, batch, _INFERENCE_TAG, rep)
        total = self.backend.forward_time_clean(profile, batch) * noise
        if tracer is not None:
            trace_measurement(
                tracer, self.backend, profile, batch, (noise,), (total,)
            )
        return total

    def measure_training_step(
        self,
        profile: CostProfile,
        batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
    ) -> PhaseTimes:
        """One noisy single-device training-step measurement: each phase's
        clean time times its own seeded noise draw.

        With a ``tracer``, emits ``forward`` / ``backward`` / ``grad_update``
        phase spans (backward layers in reverse topological order); each
        phase's children sum exactly to the corresponding returned time.
        """
        backend = self.backend
        if enforce_memory:
            backend.check_fits(profile, batch, training=True)
        clean = (
            backend.forward_time_clean(profile, batch),
            backend.backward_time_clean(profile, batch),
            backend.grad_update_time_clean(profile),
        )
        noise = tuple(
            self._noise(profile.graph_name, batch, tag, rep)
            for tag in _STEP_TAGS
        )
        times = tuple(c * n for c, n in zip(clean, noise))
        if tracer is not None:
            trace_measurement(tracer, backend, profile, batch, noise, times)
        return PhaseTimes(*times)


# -- span emission -------------------------------------------------------------


def trace_phase(
    tracer: "Tracer",
    backend: ExecutionBackend,
    phase: str,
    profile: CostProfile,
    batch: int,
    noise: float,
    total: float,
) -> None:
    """Emit a ``"forward"`` or ``"backward"`` phase as per-layer spans
    tiling ``[0, total]``.

    The per-layer durations are the roofline layer times scaled by the
    phase's measured noise factor; the framework base overhead (and
    float dust) lands in a closing ``overhead`` span, so the children
    sum exactly to the measured phase total.  The backward sweep emits
    layers in reverse topological order.
    """
    from repro.trace.tracer import record_layer_phase

    backward = phase == "backward"
    times = backend.layer_times(profile, batch, backward) * noise
    flops, nbytes = phase_work(profile, batch, phase)
    names = profile.layer_names
    if backward:
        times, flops, nbytes = times[::-1], flops[::-1], nbytes[::-1]
        names = names[::-1]
    record_layer_phase(tracer, phase, names, times, flops, nbytes, total)


def trace_grad_update(
    tracer: "Tracer",
    profile: CostProfile,
    optimizer: float,
    exposed_comm: float = 0.0,
) -> None:
    """Emit the update phase: any exposed all-reduce time, then the
    optimizer step as one span of its measured time."""
    flops, nbytes = (
        float(w.sum()) for w in phase_work(profile, 0, "grad_update")
    )
    tracer.begin("grad_update", category="phase")
    if exposed_comm > 0.0:
        tracer.add("exposed_comm", exposed_comm, category="comm")
    tracer.add(
        "optimizer",
        optimizer,
        category="optimizer",
        attrs={"flops": flops, "bytes": nbytes},
    )
    tracer.count("flops", flops)
    tracer.count("bytes", nbytes)
    tracer.end(exposed_comm + optimizer)


def trace_measurement(
    tracer: "Tracer",
    backend: ExecutionBackend,
    profile: CostProfile,
    batch: int,
    noise: Sequence[float],
    times: Sequence[float],
) -> None:
    """Emit the spans of one single-device measurement from its noise
    factors and phase times: a ``forward`` phase for an inference (one
    factor), plus ``backward`` and ``grad_update`` for a training step
    (the ``fwd``/``bwd``/``grad`` factors)."""
    trace_phase(tracer, backend, "forward", profile, batch, noise[0], times[0])
    if len(noise) > 1:
        trace_phase(
            tracer, backend, "backward", profile, batch, noise[1], times[1]
        )
        trace_grad_update(tracer, profile, times[2])
