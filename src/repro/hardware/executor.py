"""Single-device simulated executor.

Produces the "measured" runtimes the campaign records: inference time and
the three training-step phases of Figure 1 (forward pass, backward pass,
weight/gradient update) on one device.  Distributed runs build on this via
:mod:`repro.distributed.trainer`.

All platform policy — timing formulas, memory accounting, noise streams —
lives in an :class:`~repro.hardware.backend.ExecutionBackend`; this class
adds the noise draws (per point, or a whole sweep's at once through
:meth:`SimulatedExecutor.noise_grids`) and span emission on top.
Constructed with a bare :class:`DeviceSpec` it uses the default roofline
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.graph.graph import ComputeGraph
from repro.hardware.backend import ExecutionBackend, get_backend, phase_work
from repro.hardware.device import DeviceSpec
from repro.hardware.roofline import CostProfile, profile_graph

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.trace.tracer import Tracer

__all__ = ["PhaseTimes", "SimulatedExecutor"]

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

    # -- span emission -------------------------------------------------------

    def _trace_phase(
        self,
        tracer: "Tracer",
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
        times = self.backend.layer_times(profile, batch, backward) * noise
        flops, nbytes = phase_work(profile, batch, phase)
        names = profile.layer_names
        if backward:
            times, flops, nbytes = times[::-1], flops[::-1], nbytes[::-1]
            names = names[::-1]
        record_layer_phase(tracer, phase, names, times, flops, nbytes, total)

    @staticmethod
    def _trace_grad_update(
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

    # -- measurements --------------------------------------------------------

    def measure_inference(
        self,
        graph_or_profile: ComputeGraph | CostProfile,
        batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
        inference_mode: bool = False,
        clean_time: float | None = None,
        noise_factor: float | None = None,
    ) -> float:
        """One noisy inference measurement, seconds.

        ``clean_time`` short-circuits the deterministic component with a
        precomputed forward time from :meth:`clean_time_grids` (the
        campaign engine supplies it from a per-model grid cache); the
        caller is responsible for it matching ``(profile, batch)``.
        ``noise_factor`` likewise supplies the point's seeded draw from
        :meth:`noise_grids`.

        With a ``tracer``, emits a ``forward`` phase span whose per-layer
        children sum exactly to the returned time; the measurement itself
        is unchanged (tracing never perturbs the noise stream).

        ``inference_mode=True`` applies the default fusion pipeline
        (:func:`repro.graph.passes.default_inference_pipeline`) when given
        a graph — BatchNorms fold into their convolutions and cheap
        activations are absorbed, mirroring what a deployment runtime
        executes.  A :class:`CostProfile` is measured as supplied (profiles
        are pre-transformed via ``zoo_profile(..., pipeline=...)``).  Noise
        stays seeded per point identity, so fused measurements are as
        reproducible as raw ones.
        """
        profile = self._as_profile(graph_or_profile, inference_mode)
        if enforce_memory:
            self.backend.check_fits(profile, batch, training=False)
        clean = (
            self.backend.forward_time_clean(profile, batch)
            if clean_time is None
            else clean_time
        )
        noise = (
            self._noise(profile.graph_name, batch, _INFERENCE_TAG, rep)
            if noise_factor is None
            else noise_factor
        )
        total = clean * noise
        if tracer is not None and tracer.enabled:
            self._trace_phase(tracer, "forward", profile, batch, noise, total)
        return total

    def measure_training_step(
        self,
        graph_or_profile: ComputeGraph | CostProfile,
        batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
        clean_times: "tuple[float, float, float] | None" = None,
        noise_factors: "tuple[float, float, float] | None" = None,
    ) -> PhaseTimes:
        """One noisy single-device training-step measurement.

        With a ``tracer``, emits ``forward`` / ``backward`` / ``grad_update``
        phase spans (backward layers in reverse topological order); each
        phase's children sum exactly to the corresponding returned time.

        ``clean_times`` short-circuits the deterministic
        ``(forward, backward, grad_update)`` components with precomputed
        values from :meth:`clean_time_grids`; the noise stream is
        untouched either way.  ``noise_factors`` supplies the point's
        ``(fwd, bwd, grad)`` draws from :meth:`noise_grids` instead of
        drawing them here.
        """
        profile = self._as_profile(graph_or_profile)
        if enforce_memory:
            self.backend.check_fits(profile, batch, training=True)
        if clean_times is None:
            clean_times = (
                self.backend.forward_time_clean(profile, batch),
                self.backend.backward_time_clean(profile, batch),
                self.backend.grad_update_time_clean(profile),
            )
        if noise_factors is None:
            name = profile.graph_name
            noise_factors = tuple(
                self._noise(name, batch, tag, rep) for tag in _STEP_TAGS
            )
        fwd_noise, bwd_noise, grad_noise = noise_factors
        fwd = clean_times[0] * fwd_noise
        bwd = clean_times[1] * bwd_noise
        grad = clean_times[2] * grad_noise
        if tracer is not None and tracer.enabled:
            self._trace_phase(
                tracer, "forward", profile, batch, fwd_noise, fwd
            )
            self._trace_phase(
                tracer, "backward", profile, batch, bwd_noise, bwd
            )
            self._trace_grad_update(tracer, profile, grad)
        return PhaseTimes(forward=fwd, backward=bwd, grad_update=grad)

    def _as_profile(
        self,
        graph_or_profile: ComputeGraph | CostProfile,
        inference_mode: bool = False,
    ) -> CostProfile:
        if isinstance(graph_or_profile, CostProfile):
            return graph_or_profile
        if inference_mode:
            from repro.graph.passes import default_inference_pipeline

            return profile_graph(
                graph_or_profile, default_inference_pipeline()
            )
        return profile_graph(graph_or_profile)
