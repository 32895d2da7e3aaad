"""ConvMeter — runtime and scalability prediction for ConvNets.

Reproduction of "Dissecting Convolutional Neural Networks for Runtime and
Scalability Prediction" (Beringer, Stock, Mazaheri, Wolf — ICPP '24).

Typical usage::

    from repro import (
        ForwardModel, TrainingStepModel, inference_campaign,
        ConvNetFeatures, zoo_profile,
    )

    data = inference_campaign()                 # benchmark the model zoo
    model = ForwardModel().fit(data)            # tune the coefficients
    feats = ConvNetFeatures.from_profile(zoo_profile("resnet50", 224))
    t = model.predict_one(feats, batch=64)      # predict an unseen config

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
harness that regenerates every table and figure of the paper.

The names below resolve on first access (PEP 562): ``import repro`` (and
so ``import repro.<anything>``) loads no subsystem, and ``from repro
import X`` imports only the subpackage that defines ``X``.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the subpackage (or module) that defines it.
_EXPORTS = {
    # campaign data
    "ConvNetFeatures": "benchdata",
    "TimingRecord": "benchdata",
    "Dataset": "benchdata",
    "inference_campaign": "benchdata",
    "training_campaign": "benchdata",
    "distributed_campaign": "benchdata",
    "block_campaign": "benchdata",
    # performance models
    "ForwardModel": "core",
    "BackwardModel": "core",
    "GradientUpdateModel": "core",
    "CombinedBwdGradModel": "core",
    "TrainingStepModel": "core",
    # evaluation
    "EvalMetrics": "core",
    "evaluate_predictions": "core",
    "leave_one_out": "core",
    "blockwise_evaluation": "core",
    # evaluation extras
    "shared_fit_evaluation": "core",
    "bootstrap_coefficients": "core",
    "bootstrap_prediction": "core",
    "compare_refinement": "core",
    "model_specific_fit": "core",
    # planning
    "epoch_time": "core",
    "total_training_time": "core",
    "throughput": "core",
    "accumulated_step_time": "core",
    "node_scaling_curve": "core",
    "strong_scaling_curve": "core",
    "batch_scaling_curve": "core",
    "turning_point": "core",
    # persistence
    "save_model": "core",
    "load_model": "core",
    # substrates
    "available_models": "zoo",
    "build_model": "zoo",
    "zoo_profile": "hardware.roofline",
    "DeviceSpec": "hardware",
    "A100_80GB": "hardware",
    "XEON_GOLD_5318Y_CORE": "hardware",
    "SimulatedExecutor": "hardware",
    "ClusterSpec": "distributed",
    "DistributedTrainer": "distributed",
    # observability
    "Tracer": "trace",
    "Span": "trace",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
