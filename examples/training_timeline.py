#!/usr/bin/env python
"""Inspect a distributed training step's timeline (the paper's Figure 1).

Renders the simulated forward / backward / fused-all-reduce / optimizer
timeline for a communication-hidden model (ResNet50) and a
communication-bound one (AlexNet), and writes Chrome-tracing JSON files
loadable in chrome://tracing or Perfetto — the same workflow Horovod's
timeline tool supports on real clusters.
"""

import tempfile
from pathlib import Path

from repro import ClusterSpec, DistributedTrainer, zoo_profile
from repro.distributed.timeline import trace_to_text
from repro.trace import Tracer, write_chrome

NODES = 4
BATCH = 64
IMAGE = 128


def main() -> None:
    cluster = ClusterSpec(nodes=NODES, gpus_per_node=4)
    trainer = DistributedTrainer(cluster, seed=2)
    out_dir = Path(tempfile.mkdtemp(prefix="convmeter_traces_"))

    for model in ("resnet50", "alexnet"):
        tracer = Tracer()
        trace = trainer.run_step(
            zoo_profile(model, IMAGE), BATCH, tracer=tracer
        )
        print(f"=== {model} on {cluster.describe()} "
              f"(batch {BATCH}/device) ===")
        print(trace_to_text(trace))
        exposed = max(0.0, trace.comm_end - trace.backward_end)
        print(
            f"communication: {sum(b.end - b.start for b in trace.buckets) * 1e3:.2f} ms total, "
            f"{trace.hidden_comm * 1e3:.2f} ms hidden behind backward, "
            f"{exposed * 1e3:.2f} ms exposed\n"
        )
        trace_path = out_dir / f"{model}_trace.json"
        write_chrome(tracer, trace_path)
        print(f"chrome trace written to {trace_path} "
              "(load in chrome://tracing)\n")

    print(
        "Reading: ResNet50's gradients hide behind its long backward pass; "
        "AlexNet's 244 MB of mostly-FC gradients outlast its tiny backward "
        "pass, exposing the all-reduce — the mechanism behind its early "
        "flattening in the Figure 8 scaling curves."
    )


if __name__ == "__main__":
    main()
