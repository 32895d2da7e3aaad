"""Trace exporters: text tree, JSON, and Chrome tracing format.

Three views of one :class:`~repro.trace.tracer.Tracer`:

* :func:`render_tree` — an indented plain-text tree with per-span
  durations, for terminals and test failure messages;
* :func:`to_json` — the full span tree plus counter totals as JSON, the
  lossless machine-readable form;
* :func:`to_chrome` / :func:`write_chrome` — Chrome tracing "X" events
  (microsecond timestamps) loadable in ``chrome://tracing`` and Perfetto,
  the same tooling Horovod's timeline targets.  Compute and communication
  spans land on separate rows via their ``track``.

All three are pure functions of the span tree, so a deterministic trace
yields byte-identical exports.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.fileio import write_text_atomic
from repro.trace.tracer import Span, Tracer

#: Chrome trace row ("thread") ids per span track.
_TRACK_TIDS = {"compute": 0, "comm": 1}

_EXPORT_VERSION = 1


def _roots(trace: Tracer | Iterable[Span]) -> list[Span]:
    if isinstance(trace, Tracer):
        trace.require_closed()
        return trace.roots
    return list(trace)


def _counters(trace: Tracer | Iterable[Span]) -> dict[str, float]:
    return trace.counters if isinstance(trace, Tracer) else {}


# -- text tree ---------------------------------------------------------------


def render_tree(trace: Tracer | Iterable[Span]) -> str:
    """Indented text rendering of the span tree, durations in ms."""
    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        label = "  " * depth + span.name
        lines.append(
            f"{label:<48s} {span.duration * 1e3:>12.6f} ms  {span.category}"
        )
        for child in span.children:
            emit(child, depth + 1)

    for root in _roots(trace):
        emit(root, 0)
    counters = _counters(trace)
    if counters:
        totals = ", ".join(
            f"{name}={value:.6g}" for name, value in sorted(counters.items())
        )
        lines.append(f"counters: {totals}")
    return "\n".join(lines)


# -- JSON --------------------------------------------------------------------


def to_json(trace: Tracer | Iterable[Span]) -> str:
    """The span tree and counter totals as a JSON document."""
    payload = {
        "version": _EXPORT_VERSION,
        "counters": dict(sorted(_counters(trace).items())),
        "spans": [root.to_dict() for root in _roots(trace)],
    }
    return json.dumps(payload, indent=2)


# -- Chrome tracing format ---------------------------------------------------


def _chrome_events(span: Span, offset_us: float) -> Iterator[dict]:
    start_us = offset_us + span.start * 1e6
    yield {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": start_us,
        "dur": span.duration * 1e6,
        "pid": 0,
        "tid": _TRACK_TIDS.get(span.track, 0),
        "args": dict(span.attrs),
    }
    for child in span.children:
        yield from _chrome_events(child, start_us)


def to_chrome(trace: Tracer | Iterable[Span]) -> list[dict]:
    """Complete-event ("X") list in Chrome tracing format, µs timestamps."""
    events: list[dict] = []
    for root in _roots(trace):
        events.extend(_chrome_events(root, 0.0))
    return events


def chrome_payload(events: list[dict]) -> dict:
    """Wrap a Chrome event list in the loadable top-level object."""
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_json(trace: Tracer | Iterable[Span]) -> str:
    """A ``chrome://tracing`` / Perfetto-loadable JSON document."""
    return json.dumps(chrome_payload(to_chrome(trace)), indent=2)


def write_chrome(trace: Tracer | Iterable[Span], path: str | Path) -> int:
    """Write the Chrome-format trace; returns the number of events."""
    events = to_chrome(trace)
    write_text_atomic(path, json.dumps(chrome_payload(events)))
    return len(events)


_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def render_prometheus(
    counters: Mapping[str, float], prefix: str = "repro_"
) -> str:
    """Counter totals in the Prometheus text exposition format.

    The serve layer's ``/metrics`` endpoint answers ``Accept: text/plain``
    with this rendering, so any Prometheus-compatible scraper can watch a
    prediction server without a JSON adapter.  Counter names are
    sanitised to the metric charset and emitted sorted, making the output
    a pure function of the counter dict.
    """
    lines = []
    for name in sorted(counters):
        metric = prefix + _PROM_BAD_CHARS.sub("_", name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {float(counters[name]):g}")
    return "\n".join(lines) + "\n" if lines else ""
