"""Measurement campaign: the benchmark sweeps that tune ConvMeter.

Replicates the paper's data collection (Section 4, "Benchmarks"): batch
sizes from 1 to 2048 and image sizes from 32 to 224 across the model zoo,
"as long as the available memory on the target system allows", for
inference, single-device training, and multi-node distributed training.
"""

from repro.benchdata.records import (
    ConvNetFeatures,
    Dataset,
    TimingRecord,
    aggregate_reps,
)
from repro.benchdata.cost import CampaignCost, campaign_cost
from repro.benchdata.engine import (
    VERIFY_MODES,
    CampaignResult,
    CampaignSpec,
    CampaignStats,
    SweepPoint,
    enumerate_points,
    point_counters,
    run_campaign,
    trace_campaign,
    verify_campaign_graphs,
)
from repro.benchdata.store import CampaignStore, StoreCorrupt, StoreMismatch
from repro.benchdata.campaign import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_IMAGE_SIZES,
    DEFAULT_MODELS,
    block_campaign,
    distributed_campaign,
    inference_campaign,
    training_campaign,
)

__all__ = [
    "ConvNetFeatures",
    "TimingRecord",
    "Dataset",
    "aggregate_reps",
    "CampaignCost",
    "campaign_cost",
    "CampaignResult",
    "CampaignSpec",
    "CampaignStats",
    "CampaignStore",
    "StoreCorrupt",
    "StoreMismatch",
    "SweepPoint",
    "VERIFY_MODES",
    "enumerate_points",
    "point_counters",
    "run_campaign",
    "trace_campaign",
    "verify_campaign_graphs",
    "DEFAULT_BATCH_SIZES",
    "DEFAULT_IMAGE_SIZES",
    "DEFAULT_MODELS",
    "inference_campaign",
    "training_campaign",
    "distributed_campaign",
    "block_campaign",
]
