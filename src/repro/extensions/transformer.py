"""ConvMeter for vision transformers (the paper's future-work item).

Section 3 argues "the same analogy can potentially be applied to other
deep-learning model categories with minor effort".  The minor effort is the
metric mapping: a transformer's runtime-carrying layers are its token
projections and attention matmuls rather than convolutions, so the Inputs
and Outputs metrics sum the tensor sizes of those *primary compute layers*
(token-linears, attention, plus the single patch-embedding convolution).
Everything else — the linear model, the fitting, the leave-one-out
protocol — is reused verbatim.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
from repro.hardware.device import A100_80GB, DeviceSpec
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.memory import fits
from repro.hardware.roofline import CostProfile, zoo_profile

#: Layer types that carry a transformer's compute (the analogue of the
#: convolutional layers in the paper's metric definitions).
PRIMARY_COMPUTE_TYPES = frozenset(
    {"Conv2d", "TokenLinear", "ScaledDotProductAttention", "Linear"}
)

#: The ViT variants evaluated by the extension.
VIT_MODELS: tuple[str, ...] = ("vit_tiny_16", "vit_small_16", "vit_base_16")

#: ViT image sizes must be multiples of the 16 px patch.
VIT_IMAGE_SIZES: tuple[int, ...] = (64, 96, 128, 160, 192, 224)
VIT_BATCH_SIZES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def transformer_features(profile: CostProfile) -> ConvNetFeatures:
    """ConvMeter metric vector with transformer-aware Inputs/Outputs."""
    primary = np.array(
        [t in PRIMARY_COMPUTE_TYPES for t in profile.layer_types], dtype=bool
    )
    return ConvNetFeatures(
        flops=profile.total_flops,
        inputs=float(profile.input_elems[primary].sum()),
        outputs=float(profile.output_elems[primary].sum()),
        weights=profile.total_params,
        layers=profile.parametric_layers,
    )


#: Layer-type groups a workload decomposes into (transformer-aware).
WORKLOAD_GROUPS: tuple[str, ...] = (
    "conv", "token_linear", "attention", "linear", "other",
)

_GROUP_OF_TYPE = {
    "Conv2d": "conv",
    "TokenLinear": "token_linear",
    "ScaledDotProductAttention": "attention",
    "Linear": "linear",
}


def workload_decomposition(profile: CostProfile) -> dict[str, float]:
    """FLOP shares per layer-type group, summing to 1.

    The workload fingerprint PreNeT-style predictors condition on: a pure
    ConvNet decomposes to ``conv`` ≈ 1, a ViT splits its compute between
    ``token_linear`` and ``attention`` — the share vector tells a trained
    predictor *what kind* of workload a query is, not just how big.
    """
    shares = {group: 0.0 for group in WORKLOAD_GROUPS}
    total = profile.total_flops
    if total <= 0.0:
        return shares
    for layer_type, flops in zip(profile.layer_types, profile.flops.tolist()):
        shares[_GROUP_OF_TYPE.get(layer_type, "other")] += flops
    return {group: shares[group] / total for group in WORKLOAD_GROUPS}


def vit_inference_campaign(
    models: Sequence[str] = VIT_MODELS,
    device: DeviceSpec = A100_80GB,
    batch_sizes: Sequence[int] = VIT_BATCH_SIZES,
    image_sizes: Sequence[int] = VIT_IMAGE_SIZES,
    seed: int = 0,
) -> Dataset:
    """Inference campaign over the ViT zoo with transformer features.

    Records are schema-compatible with the ConvNet campaigns, so the
    unmodified :class:`~repro.core.forward.ForwardModel` and leave-one-out
    protocol apply.
    """
    executor = SimulatedExecutor(device, seed=seed)
    data = Dataset()
    for model in models:
        for image in image_sizes:
            if image % 16:
                continue
            profile = zoo_profile(model, image)
            features = transformer_features(profile)
            for batch in batch_sizes:
                if not fits(profile, batch, device, training=False):
                    continue
                t = executor.measure_inference(profile, batch)
                data.append(
                    TimingRecord(
                        model=model,
                        device=device.name,
                        image_size=image,
                        batch=batch,
                        nodes=1,
                        devices=1,
                        scenario="inference",
                        features=features,
                        t_fwd=t,
                    )
                )
    return data


def vit_training_campaign(
    models: Sequence[str] = VIT_MODELS,
    device: DeviceSpec = A100_80GB,
    batch_sizes: Sequence[int] = VIT_BATCH_SIZES,
    image_sizes: Sequence[int] = VIT_IMAGE_SIZES,
    seed: int = 0,
) -> Dataset:
    """Single-device training campaign over the ViT zoo.

    Enables the full :class:`~repro.core.training.TrainingStepModel` on
    transformers — the second half of the paper's future-work claim.
    """
    executor = SimulatedExecutor(device, seed=seed)
    data = Dataset()
    for model in models:
        for image in image_sizes:
            if image % 16:
                continue
            profile = zoo_profile(model, image)
            features = transformer_features(profile)
            for batch in batch_sizes:
                if not fits(profile, batch, device, training=True):
                    continue
                phases = executor.measure_training_step(profile, batch)
                data.append(
                    TimingRecord(
                        model=model,
                        device=device.name,
                        image_size=image,
                        batch=batch,
                        nodes=1,
                        devices=1,
                        scenario="training",
                        features=features,
                        t_fwd=phases.forward,
                        t_bwd=phases.backward,
                        t_grad=phases.grad_update,
                    )
                )
    return data
