"""Figure 1: the anatomy of a synchronous training step.

The paper's background figure (after Pauloski et al.) shows a step as
forward pass, backward pass, and bucketed gradient synchronisation
overlapping the backward sweep.  Our realisation is the distributed
trainer's timeline: this experiment renders it for a reference
configuration and verifies the structural properties the figure depicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.cluster import ClusterSpec
from repro.distributed.timeline import trace_to_text
from repro.distributed.trainer import DistributedTrainer, TrainingStepTrace
from repro.experiments.common import GPU, SEED_EVAL
from repro.hardware.roofline import zoo_profile

FIG1_MODEL = "resnet50"
FIG1_IMAGE = 128
FIG1_BATCH = 64
FIG1_NODES = 2


@dataclass(frozen=True)
class Fig1Result:
    trace: TrainingStepTrace
    model: str

    @property
    def has_bucketed_sync(self) -> bool:
        """Gradients synchronise in buckets (the figure's B1…Bn boxes)."""
        return len(self.trace.buckets) >= 2

    @property
    def sync_overlaps_backward(self) -> bool:
        """At least one bucket starts before the backward pass ends."""
        return any(
            b.start < self.trace.backward_end for b in self.trace.buckets
        )

    @property
    def buckets_in_reverse_layer_order(self) -> bool:
        """Buckets are filled by gradients of later layers first."""
        indices = [b.bucket.tensor_indices for b in self.trace.buckets]
        flat = [i for idx in indices for i in idx]
        return flat == sorted(flat)

    def render(self) -> str:
        header = (
            f"Figure 1 — synchronous training step timeline "
            f"({self.model}, {FIG1_NODES} nodes x 4 GPUs, "
            f"batch {FIG1_BATCH}/device)\n"
        )
        return header + trace_to_text(self.trace)


def run_fig1(
    model: str = FIG1_MODEL,
    nodes: int = FIG1_NODES,
) -> Fig1Result:
    cluster = ClusterSpec(nodes=nodes, gpus_per_node=4, device=GPU)
    trainer = DistributedTrainer(cluster, seed=SEED_EVAL)
    trace = trainer.run_step(zoo_profile(model, FIG1_IMAGE), FIG1_BATCH)
    return Fig1Result(trace=trace, model=model)
