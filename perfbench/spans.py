"""In-memory layer spans for the traced benchmark runs.

A :class:`Recorder` keeps every span as ``(name, start, end, parent)`` in a
list until the run ends.  Spans come from two places, both in the
benchmark's own code: explicit ``with recorder.span(name):`` blocks around
calls the benchmark makes itself, and :func:`install_layers`, which replaces
each public entry point of a layer with a wrapper that opens a span around
each call.

:func:`install_layers` patches the name wherever a caller looks it up: the
defining module, every loaded ``repro`` module that bound the same object
with ``from ... import``, and the class for methods.  A target that no
longer exists raises :class:`MissingEntryPoint`; the traced run fails
rather than report zero for a layer whose entry point moved.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass

#: Layer name -> the public entry points whose calls make up that layer,
#: as ``"module:attribute"`` or ``"module:Class.method"``.
LAYER_ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "zoo.build": ("repro.zoo.registry:build_model",),
    "analysis.verify": (
        "repro.analysis.verify.rules:verify_graph",
        "repro.analysis.verify.rules:verify_transform",
    ),
    "hardware.roofline.profile": ("repro.hardware.roofline:profile_graph",),
    "hardware.executor.measure": (
        "repro.hardware.executor:SimulatedExecutor.clean_time_grids",
        "repro.hardware.executor:SimulatedExecutor.measure_inference",
        "repro.hardware.executor:SimulatedExecutor.measure_training_step",
    ),
    "hardware.noise.draw": ("repro.hardware.noise:lognormal_factor",),
    "benchdata.store.append": ("repro.benchdata.store:CampaignStore.append",),
    "benchdata.store.restore": (
        "repro.benchdata.store:CampaignStore.restored_points",
    ),
    "benchdata.records.to_json": ("repro.benchdata.records:Dataset.to_json",),
    "core.fit": ("repro.core.training:TrainingStepModel.fit",),
    "core.persistence.save": ("repro.core.persistence:save_model",),
    "lint.rules": ("repro.lint.rules:lint_paths",),
    "analysis.concurrency": ("repro.analysis.concurrency:analyze_paths",),
    "analysis.perf": ("repro.analysis.perf:analyze_paths",),
}


class MissingEntryPoint(RuntimeError):
    """A wrapped entry point is gone, e.g. moved by a refactor."""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """Single-threaded span and counter store, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[index]
            self.spans[index] = Span(
                name, span.start, time.perf_counter(), parent
            )

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped_by_bench__ = True
        return wrapper

    def count(self, name: str) -> None:
        self.counts[name] += 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap: the recorder is per-thread)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (summed self time in seconds, span count)."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for span, own in zip(self.spans, self.self_times()):
            out[span.name][0] += own
            out[span.name][1] += 1
        return {name: (t, n) for name, (t, n) in out.items()}

    def self_times_of(self, name: str) -> list[float]:
        return [
            own for span, own in zip(self.spans, self.self_times())
            if span.name == name
        ]

    def root_time(self, start: float, end: float) -> float:
        """Time inside ``[start, end]`` covered by top-level spans."""
        return sum(
            max(0.0, min(s.end, end) - max(s.start, start))
            for s in self.spans
            if s.parent is None
        )


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingEntryPoint(
            f"entry point {target}: module is gone ({exc})"
        ) from None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingEntryPoint(f"entry point {target}: {part} is gone")
    attr = parts[-1]
    if attr not in vars(owner):
        raise MissingEntryPoint(
            f"entry point {target}: {attr} is gone from {owner!r}"
        )
    return owner, attr, vars(owner)[attr]


def install_layers(
    layers: Iterable[str] = tuple(LAYER_ENTRY_POINTS),
) -> Recorder:
    """A new recorder with the entry points of ``layers`` wrapped.

    Call after the program's modules are imported, so ``from X import f``
    bindings made at import time are found and patched too.
    """
    recorder = Recorder()
    for layer in layers:
        for target in LAYER_ENTRY_POINTS[layer]:
            owner, attr, original = _resolve(target)
            if getattr(original, "__wrapped_by_bench__", False):
                raise RuntimeError(f"{target} is already wrapped")
            wrapper = recorder.wrap(original, layer)
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for name, module in list(sys.modules.items()):
                if module is None or module is owner:
                    continue
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return recorder


def layer_totals(layers: dict, name: str) -> tuple[float, int]:
    """``(self time in seconds, calls)`` of layer ``name`` from
    :meth:`Recorder.totals`; zeros for a layer that recorded no calls."""
    own, calls = layers.get(name, (0.0, 0))
    return own, calls
