"""Structured spans and counters on a simulated clock.

The simulator stack reports aggregate phase times; this module records
*where* that simulated time goes.  A :class:`Tracer` holds a tree of
:class:`Span` s — ``campaign`` → ``model`` → ``phase`` → ``layer`` — whose
timestamps come from a simulated clock the instrumented code advances
explicitly, never from the wall clock.  Because every duration is a pure
function of the measurement identity (the same seeding contract as
:mod:`repro.hardware.noise`), two traces of the same configuration are
byte-identical regardless of worker count, execution order, or resume
splits.

Exactness contract
------------------
Span starts are stored *relative to the parent span*, and a parent's
elapsed-time accumulator is updated child-by-child in emission order.  Two
invariants therefore hold with exact float equality, not approximately:

* consecutive children tile their parent: ``child[i+1].start ==
  child[i].start + child[i].duration`` as evaluated left to right;
* when a phase is closed with an explicit measured total via
  :func:`record_layer_phase`, the left-to-right sum of its children's
  durations equals that total bit-for-bit (the closing ``overhead`` span
  absorbs the remainder, and Sterbenz's lemma makes the telescoped sum
  exact).

Tracing is opt-in: the instrumented hot paths take ``tracer=None`` and a
single guard (`tracer is not None`) keeps the disabled path free of any
per-layer Python work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence


class TraceError(RuntimeError):
    """Structural misuse of a tracer (unbalanced spans, negative time)."""


@dataclass
class Span:
    """One named interval of simulated time.

    ``start`` is seconds since the *parent* span began (roots: since the
    trace began); ``duration`` is the span's extent in simulated seconds.
    ``track`` groups spans into Chrome-trace rows (``compute`` vs
    ``comm``); ``attrs`` carries per-span measurements such as the FLOPs a
    layer executed.
    """

    name: str
    category: str
    start: float = 0.0
    duration: float = 0.0
    track: str = "compute"
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def end(self) -> float:
        """Parent-relative end time (display only; may round)."""
        return self.start + self.duration

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order iteration over this span and descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, category: str) -> list["Span"]:
        """All descendant spans (including self) of one category."""
        return [s for s in self.walk() if s.category == category]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "track": self.track,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Records nested spans and counters on a simulated clock.

    Usage::

        tracer = Tracer()
        tracer.begin("alexnet@224 b=1", category="model")
        tracer.begin("forward", category="phase")
        tracer.add("conv1", 1.2e-3, category="layer")
        tracer.count("flops", 2.1e8)
        tracer.end()            # duration = sum of children
        tracer.end(total)       # or pin an explicit measured total
    """

    def __init__(self) -> None:
        # Sentinel root: never exported, its children are the trace roots.
        self._root = Span("<root>", category="root")
        self._elapsed: dict[int, float] = {id(self._root): 0.0}
        self._stack: list[Span] = [self._root]
        self._counters: dict[str, float] = {}

    # -- span lifecycle ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack) - 1

    @property
    def roots(self) -> list[Span]:
        """Top-level spans recorded so far."""
        return self._root.children

    def elapsed(self) -> float:
        """Simulated seconds accumulated inside the innermost open span."""
        return self._elapsed[id(self._stack[-1])]

    def begin(
        self,
        name: str,
        category: str,
        track: str = "compute",
        attrs: Mapping | None = None,
    ) -> Span:
        """Open a child span starting at the current simulated clock."""
        parent = self._stack[-1]
        span = Span(
            name=name,
            category=category,
            start=self._elapsed[id(parent)],
            track=track,
            attrs=dict(attrs) if attrs else {},
        )
        parent.children.append(span)
        self._stack.append(span)
        self._elapsed[id(span)] = 0.0
        return span

    def end(self, duration: float | None = None) -> Span:
        """Close the innermost span.

        Without ``duration`` the span extends to the time its children and
        :meth:`advance` calls accumulated.  With an explicit ``duration``
        (a measured phase total) the span is pinned to exactly that value;
        it must not be shorter than the accumulated child time.
        """
        if len(self._stack) == 1:
            raise TraceError("end() without a matching begin()")
        span = self._stack.pop()
        accumulated = self._elapsed.pop(id(span))
        if duration is None:
            span.duration = accumulated
        else:
            if duration < accumulated and not _within_ulps(
                duration, accumulated
            ):
                raise TraceError(
                    f"span {span.name!r}: explicit duration {duration!r} is "
                    f"shorter than its children's {accumulated!r}"
                )
            span.duration = duration
        # The parent's clock jumps to this child's end as evaluated from
        # the child's own start — this is what makes a parent's elapsed
        # time the exact left-to-right sum of its children's durations.
        parent = self._stack[-1]
        self._elapsed[id(parent)] = span.start + span.duration
        return span

    def advance(self, seconds: float) -> None:
        """Move the simulated clock of the innermost open span forward."""
        if seconds < 0.0:
            raise TraceError(f"cannot advance time by {seconds!r}")
        span = self._stack[-1]
        self._elapsed[id(span)] = self._elapsed[id(span)] + seconds

    def add(
        self,
        name: str,
        duration: float,
        category: str,
        track: str = "compute",
        attrs: Mapping | None = None,
    ) -> Span:
        """Record one complete leaf span at the current clock."""
        self.begin(name, category, track=track, attrs=attrs)
        self.advance(duration)
        return self.end()

    def add_at(
        self,
        name: str,
        start: float,
        duration: float,
        category: str,
        track: str = "compute",
        attrs: Mapping | None = None,
    ) -> Span:
        """Record a completed child span at an explicit parent-relative
        offset without moving the clock — for work that overlaps the
        sequential timeline, like all-reduces hidden behind backward."""
        if start < 0.0:
            raise TraceError(f"span {name!r}: negative start {start!r}")
        if duration < 0.0:
            raise TraceError(f"span {name!r}: negative duration {duration!r}")
        span = Span(
            name=name,
            category=category,
            start=start,
            duration=duration,
            track=track,
            attrs=dict(attrs) if attrs else {},
        )
        self._stack[-1].children.append(span)
        return span

    def require_closed(self) -> None:
        """Raise unless every begun span has been ended (export guard)."""
        if len(self._stack) != 1:
            names = ", ".join(repr(s.name) for s in self._stack[1:])
            raise TraceError(f"unclosed span(s): {names}")

    # -- counters ----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        """Accumulate a named counter (FLOPs, bytes, allreduce volume…)."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    @property
    def counters(self) -> dict[str, float]:
        """Cumulative counter totals recorded so far."""
        return dict(self._counters)


def _within_ulps(a: float, b: float, ulps: int = 4) -> bool:
    """True when two floats are within a few representable steps — used
    only to tolerate benign rounding in explicit-duration validation."""
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    return diff <= ulps * math.ulp(scale) if scale else True


def merge_counters(
    into: dict[str, float], delta: Mapping[str, float]
) -> dict[str, float]:
    """Accumulate one counter delta into a running total, in place."""
    for name, value in delta.items():
        into[name] = into.get(name, 0.0) + value
    return into


def record_layer_phase(
    tracer: Tracer,
    name: str,
    layer_names: Sequence[str],
    durations: Sequence[float],
    flops: Sequence[float],
    nbytes: Sequence[float],
    total: float,
) -> Span:
    """Emit one phase span whose layer children tile exactly ``[0, total]``.

    ``durations`` are the per-layer simulated times (noise included);
    their left-to-right sum is at most ``total`` and the gap — framework
    base overhead plus float dust — becomes a closing ``overhead`` span,
    so the children's durations sum to ``total`` with exact float
    equality.  ``flops``/``nbytes`` are per-layer work counters, recorded
    on each layer span and accumulated into the tracer's totals.
    """
    tracer.begin(name, category="phase")
    for i, layer_name in enumerate(layer_names):
        f = float(flops[i])
        b = float(nbytes[i])
        tracer.add(
            layer_name,
            float(durations[i]),
            category="layer",
            attrs={"flops": f, "bytes": b},
        )
        tracer.count("flops", f)
        tracer.count("bytes", b)
    remainder = total - tracer.elapsed()
    if remainder < 0.0:
        raise TraceError(
            f"phase {name!r}: layer spans overrun the measured total by "
            f"{-remainder!r} s"
        )
    tracer.add("overhead", remainder, category="overhead")
    return tracer.end(total)
