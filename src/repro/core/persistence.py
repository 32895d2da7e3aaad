"""Saving and loading fitted performance models.

A fitted ConvMeter model is just named coefficients plus its structural
configuration, so persistence is a small JSON document — the property the
paper highlights ("we only need to compute and store a few coefficients").

Format history:

* **1** — coefficients and structure only.
* **2** — adds per-feature fitted ranges to every linear state (enabling
  extrapolation-domain checks, audit rule FIT004, after a load) and embeds
  the fitted-model audit block (``repro.analysis.audit``) at the top level
  so a saved artifact carries its own bill of health.  Version-1 documents
  load unchanged — they simply have no ranges and no audit block.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.forward import ForwardModel
from repro.core.regression import LinearModel
from repro.core.training import (
    BackwardModel,
    CombinedBwdGradModel,
    GradientUpdateModel,
    TrainingStepModel,
)
from repro.fileio import DocumentError, read_json_object, write_text_atomic

_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (1, 2)

#: Audit gate modes accepted by :func:`save_model` / ``repro fit --audit``.
AUDIT_MODES = ("warn", "strict", "off")


def _linear_state(model: LinearModel) -> dict[str, Any]:
    return {
        "method": model.method,
        "weighting": model.weighting,
        "feature_names": list(model.feature_names),
        "coef": None if model.coef is None else model.coef.tolist(),
        "feature_ranges": (
            None
            if model.feature_ranges is None
            else [[lo, hi] for lo, hi in model.feature_ranges]
        ),
    }


def _restore_linear(state: dict[str, Any]) -> LinearModel:
    model = LinearModel(
        method=state["method"],
        weighting=state["weighting"],
        feature_names=tuple(state["feature_names"]),
    )
    if state["coef"] is not None:
        model.coef = np.asarray(state["coef"], dtype=np.float64)
    ranges = state.get("feature_ranges")
    if ranges is not None:
        model.feature_ranges = tuple(
            (float(lo), float(hi)) for lo, hi in ranges
        )
    return model


def _model_state(model: object) -> dict[str, Any]:
    """Structural serialisation (no audit block)."""
    if isinstance(model, ForwardModel):  # covers BackwardModel too
        kind = (
            "backward" if isinstance(model, BackwardModel) else "forward"
        )
        return {
            "format": _FORMAT_VERSION,
            "kind": kind,
            "metric_names": list(model.metric_names),
            "phase": model.phase,
            "linear": _linear_state(model.model),
        }
    if isinstance(model, GradientUpdateModel):
        return {
            "format": _FORMAT_VERSION,
            "kind": "grad_update",
            "multi_node": model.multi_node,
            "linear": _linear_state(model.model),
        }
    if isinstance(model, CombinedBwdGradModel):
        return {
            "format": _FORMAT_VERSION,
            "kind": "combined_bwd_grad",
            "method": model.method,
            "single": _linear_state(model.single),
            "multi": _linear_state(model.multi),
        }
    if isinstance(model, TrainingStepModel):
        return {
            "format": _FORMAT_VERSION,
            "kind": "training_step",
            "forward": _model_state(model.forward),
            "bwd_grad": _model_state(model.bwd_grad),
        }
    # Imported here: persistence is core-layer, the learned predictors live
    # above it in repro.baselines.
    from repro.baselines.protocol import LearnedPredictor

    if isinstance(model, LearnedPredictor):
        return {
            "format": _FORMAT_VERSION,
            "kind": model.kind,
            "predictor": model.to_state(),
        }
    raise TypeError(f"cannot serialise {type(model).__name__}")


def _audit_block(model: object) -> dict[str, Any]:
    """Run the fitted-model auditor and shape its findings for embedding."""
    # Imported here: persistence is core-layer, the auditor lives above it
    # in repro.analysis.
    from repro.analysis.audit import audit_model
    from repro.diagnostics import Severity, count_by_severity

    diagnostics = audit_model(model)
    counts = count_by_severity(diagnostics)
    return {
        "errors": counts[Severity.ERROR],
        "warnings": counts[Severity.WARN],
        "infos": counts[Severity.INFO],
        "diagnostics": [d.to_dict() for d in diagnostics],
    }


def model_to_dict(model: object, audit: bool = True) -> dict[str, Any]:
    """Serialise any fitted ConvMeter model to a JSON-safe dict.

    ``audit=True`` (default) embeds the fitted-model audit block so the
    persisted artifact records the statistical health of its coefficients
    at save time.
    """
    state = _model_state(model)
    if audit:
        state["audit"] = _audit_block(model)
    return state


def model_from_dict(state: dict[str, Any]) -> object:
    """Inverse of :func:`model_to_dict`.

    Accepts every supported format version; version-1 documents (no
    feature ranges, no audit block) load without warnings.
    """
    if state.get("format") not in _SUPPORTED_FORMATS:
        raise ValueError(
            f"unsupported model format {state.get('format')!r}"
        )
    kind = state["kind"]
    if kind in ("forward", "backward"):
        model = (
            BackwardModel()
            if kind == "backward"
            else ForwardModel(
                metric_names=tuple(state["metric_names"]),
                phase=state["phase"],
            )
        )
        model.model = _restore_linear(state["linear"])
        return model
    if kind == "grad_update":
        model = GradientUpdateModel(multi_node=state["multi_node"])
        model.model = _restore_linear(state["linear"])
        return model
    if kind == "combined_bwd_grad":
        model = CombinedBwdGradModel(method=state["method"])
        model.single = _restore_linear(state["single"])
        model.multi = _restore_linear(state["multi"])
        return model
    if kind == "training_step":
        model = TrainingStepModel()
        model.forward = model_from_dict(state["forward"])
        model.bwd_grad = model_from_dict(state["bwd_grad"])
        return model
    from repro.baselines import LEARNED_KINDS, predictor_from_state

    if kind in LEARNED_KINDS:
        return predictor_from_state(kind, state["predictor"])
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model: object, path: str | Path, audit: str = "warn") -> None:
    """Write a fitted model to a JSON file, audit-gated.

    ``audit`` is the persistence gate of the fitted-model auditor:

    * ``"warn"`` (default) — embed the audit block; if it contains ERROR
      findings, emit a :class:`RuntimeWarning` naming the first one but
      save anyway.
    * ``"strict"`` — refuse to persist a model whose audit has ERROR
      findings (raises :class:`~repro.analysis.audit.ModelAuditError`).
    * ``"off"`` — skip the auditor entirely (no audit block is embedded).
    """
    if audit not in AUDIT_MODES:
        raise ValueError(
            f"unknown audit mode {audit!r}; options: {', '.join(AUDIT_MODES)}"
        )
    state = model_to_dict(model, audit=audit != "off")
    block = state.get("audit")
    if block and block["errors"]:
        if audit == "strict":
            from repro.analysis.audit import ModelAuditError
            from repro.diagnostics import Diagnostic, Severity

            raise ModelAuditError(
                [
                    Diagnostic(
                        d["rule"], Severity[d["severity"]], d["location"],
                        d["message"], d["hint"],
                    )
                    for d in block["diagnostics"]
                ]
            )
        first = block["diagnostics"][0]
        warnings.warn(
            f"persisting a model with {block['errors']} audit ERROR"
            f"{'s' if block['errors'] != 1 else ''} "
            f"(first: [{first['rule']}] {first['message']}); "
            "run `repro audit` for the full report",
            RuntimeWarning,
            stacklevel=2,
        )
    write_text_atomic(path, json.dumps(state, indent=2))


def _read_model_document(path: str | Path) -> dict[str, Any]:
    """The JSON object at ``path``, checked to carry a model's ``format``
    and ``kind`` (:class:`~repro.fileio.DocumentError` otherwise)."""
    state = read_json_object(path)
    for key in ("format", "kind"):
        if key not in state:
            raise DocumentError(f"{path}: missing key {key!r}")
    return state


def load_model(path: str | Path) -> object:
    """Load a fitted model saved by :func:`save_model`.

    Raises :class:`~repro.fileio.DocumentError` naming ``path`` when the
    file is not a model document.
    """
    state = _read_model_document(path)
    try:
        return model_from_dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def load_audit_block(path: str | Path) -> dict[str, Any] | None:
    """The audit block embedded in a saved model, or None (v1 documents,
    or models saved with ``audit="off"``)."""
    return _read_model_document(path).get("audit")
