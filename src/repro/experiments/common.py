"""Shared experiment configuration and cached campaign construction.

Campaign datasets are deterministic in their arguments (the simulator's
noise is seeded), so experiments share one cached copy per scenario instead
of re-measuring — the same way the paper reuses one benchmark corpus across
its evaluation sections.

Set ``REPRO_CAMPAIGN_WORKERS=N`` to fan campaign generation out over N
worker processes (the benchmark harness exposes this as
``--campaign-workers``).  Records are byte-identical to serial runs, so
every experiment artefact is unchanged — only the wall clock moves.

Set ``REPRO_CAMPAIGN_BACKEND=<name>`` to re-run the GPU-device experiment
campaigns under a registered execution backend (``edge``, ``fp16``, … —
see ``repro devices``).  Unset, everything is measured by the default
roofline backend, bit-identical to the pre-backend corpus.  The
single-CPU-core inference campaign always stays on the default backend:
the GPU-flavoured backends reject CPU presets by construction.
"""

from __future__ import annotations

import os

from repro.benchdata import (
    Dataset,
    block_campaign,
    distributed_campaign,
    inference_campaign,
    training_campaign,
)
from repro.caching import LRUCache
from repro.hardware.device import (
    A100_80GB,
    XEON_GOLD_5318Y_CORE,
    DeviceSpec,
    get_device,
)

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


def campaign_backend() -> str:
    """Execution backend for the GPU experiment campaigns ("" = roofline)."""
    name = os.environ.get("REPRO_CAMPAIGN_BACKEND", "")
    return "" if name == "roofline" else name


#: One cached dataset per scenario (the five functions below), bounded and
#: observable — `repro lint` bans unbounded ``functools.lru_cache`` repo-wide.
#: Keyed by campaign, not by graph, so it is not a graph record.
DATASET_CACHE: LRUCache[str, Dataset] = LRUCache(maxsize=8)


def gpu_inference_data() -> Dataset:
    backend = campaign_backend()
    return DATASET_CACHE.get_or_compute(
        f"gpu-inference:{backend}",
        lambda: inference_campaign(
            device=GPU, seed=SEED_INFERENCE_GPU, workers=campaign_workers(),
            backend=backend,
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
    backend = campaign_backend()
    return DATASET_CACHE.get_or_compute(
        f"training:{backend}",
        lambda: training_campaign(
            device=GPU, seed=SEED_TRAINING, workers=campaign_workers(),
            backend=backend,
        ),
    )


def distributed_data() -> Dataset:
    backend = campaign_backend()
    return DATASET_CACHE.get_or_compute(
        f"distributed:{backend}",
        lambda: distributed_campaign(
            node_counts=NODE_COUNTS,
            gpus_per_node=GPUS_PER_NODE,
            device=GPU,
            seed=SEED_DISTRIBUTED,
            workers=campaign_workers(),
            backend=backend,
        ),
    )


def device_by_name(name: str) -> DeviceSpec:
    return get_device(name)
