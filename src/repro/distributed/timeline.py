"""Plain-text timeline of a training-step trace.

:func:`trace_to_text` renders a
:class:`~repro.distributed.trainer.TrainingStepTrace` as a Gantt-style
view of the forward / backward / per-bucket-communication / optimizer
phases, the textual analogue of the paper's Figure 1.  For Chrome tracing
(``chrome://tracing`` / Perfetto), pass a
:class:`~repro.trace.tracer.Tracer` to
:meth:`~repro.distributed.trainer.DistributedTrainer.run_step` and write
it with :func:`repro.trace.export.write_chrome`.
"""

from __future__ import annotations

from repro.distributed.trainer import TrainingStepTrace


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
