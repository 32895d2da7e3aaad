"""Comparator models and the learned-baseline predictor suite.

* Single-metric regressions (FLOPs-only / Inputs-only / Outputs-only) for
  the Figure 2 ablation — thin configurations of the forward model.
* A PALEO-style analytical predictor (no fitting; load divided by nominal
  device capability) representing the FLOPs-based related work.
* A DIPPM stand-in: a learned graph-feature predictor trained on a fixed
  coarse dataset, reproducing the qualitative Figure 6 comparison.
* The :class:`~repro.baselines.protocol.Predictor` suite: the adapters
  above plus three numpy-from-scratch learned competitors (ResPerfNet /
  PerfSeer / PreNeT stand-ins), raced by the leave-one-out leaderboard
  (:mod:`repro.baselines.eval`, ``repro leaderboard``).

The names below resolve on first access (PEP 562), so reading the
leaderboard's scenario and predictor names (``repro --help``) imports no
predictor.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.baselines.protocol import LearnedPredictor

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "SINGLE_METRIC_VARIANTS": "single_metric",
    "single_metric_model": "single_metric",
    "PaleoModel": "paleo",
    "NeuralPowerModel": "neuralpower",
    "DippmSurrogate": "dippm",
    "GraphUnsupportedError": "dippm",
    "Predictor": "protocol",
    "LearnedPredictor": "protocol",
    "MLPPredictor": "protocol",
    "canonical_records": "protocol",
    "record_identity": "protocol",
    "validation_mask": "protocol",
    "ConvMeterPredictor": "adapters",
    "PaleoPredictor": "adapters",
    "NeuralPowerPredictor": "adapters",
    "DippmPredictor": "adapters",
    "ResPerfNet": "resperfnet",
    "PerfSeer": "perfseer",
    "PreNeT": "prenet",
}

#: Artifact kind -> the learned predictor class that owns it (persistence
#: dispatch); each key is its class's ``kind``.
_LEARNED = {
    "resperfnet": "ResPerfNet",
    "perfseer": "PerfSeer",
    "prenet": "PreNeT",
}

#: Artifact kinds owned by the learned predictors.
LEARNED_KINDS: tuple[str, ...] = tuple(_LEARNED)

__all__ = [*_EXPORTS, "LEARNED_KINDS", "predictor_from_state"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def predictor_from_state(kind: str, state: dict[str, Any]) -> LearnedPredictor:
    """Rebuild a learned predictor from its persisted ``"predictor"`` state."""
    try:
        name = _LEARNED[kind]
    except KeyError:
        raise ValueError(
            f"unknown learned-predictor kind {kind!r}; "
            f"options: {', '.join(LEARNED_KINDS)}"
        ) from None
    return __getattr__(name).from_state(state)
