"""Deterministic tracing and metrics for the simulator stack.

Observability layer over :mod:`repro.hardware` and :mod:`repro.distributed`:
nested spans (``campaign`` → ``model`` → ``phase`` → ``layer``) on a
simulated clock, plus work counters (FLOPs executed, bytes moved,
all-reduce volume, cache hits).  Tracing is opt-in and zero-overhead when
off; when on, traces are byte-identical across worker counts and resume
splits because every duration derives from the point-identity seeding of
:mod:`repro.hardware.noise`.

The single-measurement driver behind ``repro trace`` lives in
:mod:`repro.trace.run` (imported lazily to avoid pulling the zoo and
hardware stacks into this package's import).  See
``docs/observability.md`` for the span taxonomy and counter catalogue.
"""

from repro.trace.tracer import (
    Span,
    TraceError,
    Tracer,
    merge_counters,
    record_layer_phase,
)
from repro.trace.export import (
    chrome_json,
    chrome_payload,
    render_prometheus,
    render_tree,
    to_chrome,
    to_json,
    write_chrome,
)

__all__ = [
    "Span",
    "Tracer",
    "TraceError",
    "merge_counters",
    "record_layer_phase",
    "render_prometheus",
    "render_tree",
    "to_json",
    "to_chrome",
    "chrome_payload",
    "chrome_json",
    "write_chrome",
]
