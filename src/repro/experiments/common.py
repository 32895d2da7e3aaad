"""Shared experiment configuration and cached campaign construction.

Campaign datasets are deterministic in their arguments (the simulator's
noise is seeded), so experiments share one cached copy per scenario instead
of re-measuring — the same way the paper reuses one benchmark corpus across
its evaluation sections.

Set ``REPRO_CAMPAIGN_WORKERS=N`` to fan campaign generation out over N
worker processes (the benchmark harness exposes this as
``--campaign-workers``).  Records are byte-identical to serial runs, so
every experiment artefact is unchanged — only the wall clock moves.

:func:`measure_node_curve` is the one per-node measuring loop of the
cluster scaling experiments (Figure 8 and strong scaling), and
:func:`curve_correlation` their trend-agreement score.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Sequence

import numpy as np

from repro.benchdata import (
    Dataset,
    block_campaign,
    distributed_campaign,
    inference_campaign,
    training_campaign,
)
from repro.caching import LRUCache
from repro.core.scalability import ScalingPoint
from repro.core.training import TrainingStepModel
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer
from repro.hardware.device import A100_80GB, XEON_GOLD_5318Y_CORE
from repro.hardware.roofline import graph_record

#: Campaign seeds: one per scenario, so scenarios are independent samples.
SEED_INFERENCE_GPU = 7
SEED_INFERENCE_CPU = 8
SEED_BLOCKS = 9
SEED_TRAINING = 11
SEED_DISTRIBUTED = 13
#: Held-out seed for fresh measurements (never used for fitting).
SEED_EVAL = 99

#: Runtime cap for the single-CPU-core campaign (Section 4 runs CPU
#: inference only up to ~10 s wall time per point).
CPU_MAX_SECONDS = 20.0

GPU = A100_80GB
CPU = XEON_GOLD_5318Y_CORE

#: Node counts of the paper's cluster scaling experiments.
NODE_COUNTS = (1, 2, 4, 8)
GPUS_PER_NODE = 4


def campaign_workers() -> int:
    """Worker-process count for campaign generation (0/1 = in-process)."""
    try:
        return int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "0"))
    except ValueError:
        return 0


#: One cached dataset per scenario (the five functions below), bounded and
#: observable — `repro lint` bans unbounded ``functools.lru_cache`` repo-wide.
#: Keyed by campaign, not by graph, so it is not a graph record.
DATASET_CACHE: LRUCache[str, Dataset] = LRUCache(maxsize=8)


def gpu_inference_data() -> Dataset:
    return DATASET_CACHE.get_or_compute(
        "gpu-inference",
        lambda: inference_campaign(
            device=GPU, seed=SEED_INFERENCE_GPU, workers=campaign_workers()
        ),
    )


def cpu_inference_data() -> Dataset:
    return DATASET_CACHE.get_or_compute(
        "cpu-inference",
        lambda: inference_campaign(
            device=CPU, seed=SEED_INFERENCE_CPU,
            max_seconds=CPU_MAX_SECONDS, workers=campaign_workers(),
        ),
    )


def block_data() -> Dataset:
    return DATASET_CACHE.get_or_compute(
        "blocks",
        lambda: block_campaign(
            device=GPU, seed=SEED_BLOCKS, workers=campaign_workers()
        ),
    )


def training_data() -> Dataset:
    return DATASET_CACHE.get_or_compute(
        "training",
        lambda: training_campaign(
            device=GPU, seed=SEED_TRAINING, workers=campaign_workers()
        ),
    )


def distributed_data() -> Dataset:
    return DATASET_CACHE.get_or_compute(
        "distributed",
        lambda: distributed_campaign(
            node_counts=NODE_COUNTS,
            gpus_per_node=GPUS_PER_NODE,
            device=GPU,
            seed=SEED_DISTRIBUTED,
            workers=campaign_workers(),
        ),
    )


def measure_node_curve(
    curve: Callable[..., list[ScalingPoint]],
    model: str,
    image: int,
    batch: int,
    node_counts: Sequence[int],
    reps: int,
    statistic: Callable[[ScalingPoint, np.ndarray], np.ndarray],
) -> tuple[ScalingPoint, ...]:
    """Predict a cluster scaling curve for ``model`` and measure each point.

    Fits a training-step model on the distributed campaign with ``model``
    held out and predicts ``curve(step_model, features, batch, node_counts,
    GPUS_PER_NODE)`` — :func:`~repro.core.scalability.node_scaling_curve`
    (``batch`` per device) or
    :func:`~repro.core.scalability.strong_scaling_curve` (``batch``
    global).  Then it measures ``reps`` fresh training steps at each
    point's node count and per-device batch; ``statistic(point,
    step_times)`` turns them into the values whose mean and standard
    deviation become the point's ``measured``/``measured_std``.  Points
    past device memory are measured too, as the prediction covers them.
    """
    step_model = TrainingStepModel().fit(
        distributed_data().excluding_model(model)
    )
    record = graph_record("model", model, image)
    predicted = curve(
        step_model, record.features, batch, node_counts, GPUS_PER_NODE
    )
    points = []
    for point in predicted:
        cluster = ClusterSpec(
            nodes=point.x, gpus_per_node=GPUS_PER_NODE, device=GPU
        )
        trainer = DistributedTrainer(cluster, seed=SEED_EVAL)
        totals = np.array(
            [
                trainer.measure_step(
                    record.profile,
                    point.per_device_batch,
                    rep=rep,
                    enforce_memory=False,
                ).total
                for rep in range(reps)
            ]
        )
        values = statistic(point, totals)
        points.append(
            dataclasses.replace(
                point,
                measured=float(values.mean()),
                measured_std=float(values.std()),
            )
        )
    return tuple(points)


def curve_correlation(
    predicted: Sequence[float], measured: Sequence[float]
) -> float:
    """Pearson correlation between a predicted and a measured curve (0
    when either is flat)."""
    pred = np.array(predicted)
    meas = np.array(measured)
    if np.std(pred) == 0 or np.std(meas) == 0:
        return 0.0
    return float(np.corrcoef(pred, meas)[0, 1])
