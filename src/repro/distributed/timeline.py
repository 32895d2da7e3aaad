"""Timeline export for training-step traces.

Two views of a :class:`~repro.distributed.trainer.TrainingStepTrace`:

* :func:`trace_to_text` — a Gantt-style plain-text rendering of the
  forward / backward / per-bucket-communication / optimizer phases (the
  textual analogue of the paper's Figure 1);
* :func:`trace_to_chrome` — Chrome tracing format (``chrome://tracing`` /
  Perfetto), the same format Horovod's own timeline tool emits, so traces
  can be inspected with standard tooling.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.distributed.trainer import TrainingStepTrace
from repro.fileio import write_text_atomic
from repro.trace.export import chrome_payload


def trace_to_chrome(trace: TrainingStepTrace, label: str = "step") -> list[dict]:
    """Chrome tracing events (phase X events, microsecond timestamps).

    Rows: track 0 = compute (forward, backward, optimizer), track 1 =
    communication (one slice per fusion bucket).
    """
    us = 1e6
    events: list[dict] = [
        {
            "name": f"{label}:forward",
            "ph": "X",
            "ts": 0.0,
            "dur": trace.phases.forward * us,
            "pid": 0,
            "tid": 0,
            "cat": "compute",
        },
        {
            "name": f"{label}:backward",
            "ph": "X",
            "ts": trace.phases.forward * us,
            "dur": trace.backward_end * us,
            "pid": 0,
            "tid": 0,
            "cat": "compute",
        },
    ]
    offset = trace.phases.forward * us
    for i, bucket in enumerate(trace.buckets):
        events.append(
            {
                "name": f"{label}:allreduce[{i}]"
                        f" ({bucket.bucket.nbytes / 1e6:.1f} MB)",
                "ph": "X",
                "ts": offset + bucket.start * us,
                "dur": (bucket.end - bucket.start) * us,
                "pid": 0,
                "tid": 1,
                "cat": "communication",
            }
        )
    events.append(
        {
            "name": f"{label}:optimizer",
            "ph": "X",
            "ts": offset + trace.comm_end * us,
            "dur": trace.optimizer_time * us,
            "pid": 0,
            "tid": 0,
            "cat": "compute",
        }
    )
    return events


def write_chrome_trace(
    trace: TrainingStepTrace, path: str | Path, label: str = "step"
) -> None:
    """Write a ``chrome://tracing``-loadable JSON file."""
    payload = chrome_payload(trace_to_chrome(trace, label))
    write_text_atomic(path, json.dumps(payload))


def trace_to_text(trace: TrainingStepTrace, width: int = 72) -> str:
    """Gantt-style text rendering of one training step.

    Each row is one phase; ``#`` marks the active span on a shared time
    axis from 0 to the step end.
    """
    total = trace.phases.forward + max(
        trace.comm_end, trace.backward_end
    ) + trace.optimizer_time
    if total <= 0:
        raise ValueError("empty trace")

    def bar(start: float, end: float) -> str:
        a = int(round(start / total * width))
        b = max(a + 1, int(round(end / total * width)))
        return " " * a + "#" * (b - a)

    fwd_end = trace.phases.forward
    lines = [
        f"{'forward':12s}|{bar(0.0, fwd_end):{width}s}| "
        f"{trace.phases.forward * 1e3:8.2f} ms",
        f"{'backward':12s}|{bar(fwd_end, fwd_end + trace.backward_end):{width}s}| "
        f"{trace.backward_end * 1e3:8.2f} ms",
    ]
    for i, bucket in enumerate(trace.buckets):
        lines.append(
            f"{f'allreduce{i}':12s}|"
            f"{bar(fwd_end + bucket.start, fwd_end + bucket.end):{width}s}| "
            f"{(bucket.end - bucket.start) * 1e3:8.2f} ms"
        )
    opt_start = fwd_end + trace.comm_end
    lines.append(
        f"{'optimizer':12s}|"
        f"{bar(opt_start, opt_start + trace.optimizer_time):{width}s}| "
        f"{trace.optimizer_time * 1e3:8.2f} ms"
    )
    lines.append(
        f"{'':12s} total {total * 1e3:.2f} ms, "
        f"hidden communication {trace.hidden_comm * 1e3:.2f} ms"
    )
    return "\n".join(lines)
