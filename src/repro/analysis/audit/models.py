"""Model-level audit dispatch: walk composite ConvMeter models.

:func:`audit_model` understands every persistable model kind —
``ForwardModel`` / ``BackwardModel``, ``GradientUpdateModel``,
``CombinedBwdGradModel``, ``TrainingStepModel`` and bare ``LinearModel`` —
and audits each constituent linear fit under a location prefix
(``forward:b*outputs``, ``bwd_grad.multi:devices``, …).  When the
campaign dataset is supplied the design matrices are re-derived from it
(so loaded models can be fully audited) and the per-ConvNet residual-bias
rule FIT006 runs on top.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.audit.artifacts import (
    AuditableArtifact,
    audit_artifact,
    audit_artifact_queries,
)
from repro.analysis.audit.rules import (
    DEFAULT_DOMAIN_FACTOR,
    _keep,
    audit_linear,
    audit_queries,
    audit_residual_bias,
)
from repro.core.features import (
    combined_bwd_grad_design,
    forward_design,
    grad_update_design,
    target,
)
from repro.core.forward import ForwardModel
from repro.core.regression import LinearModel
from repro.core.training import (
    CombinedBwdGradModel,
    GradientUpdateModel,
    TrainingStepModel,
)
from repro.diagnostics import Diagnostic, sort_diagnostics


def _records(data) -> list:
    return list(data) if data is not None else []


def _bias_groups(records, measured, predicted) -> dict:
    groups: dict[str, tuple[list, list]] = {}
    for r, m, p in zip(records, measured, predicted):
        groups.setdefault(r.model, ([], []))
        groups[r.model][0].append(m)
        groups[r.model][1].append(p)
    return {
        k: (np.array(ms), np.array(ps)) for k, (ms, ps) in groups.items()
    }


def _audit_forward(
    model: ForwardModel, records, *, prefix: str
) -> list[Diagnostic]:
    X = y = None
    if records:
        X = forward_design(records, model.metric_names)
        y = target(records, model.phase)
    found = audit_linear(model.model, X, y, location=prefix)
    if records and model.model.is_fitted:
        predicted = model.model.predict(X)
        found.extend(
            audit_residual_bias(
                _bias_groups(records, y, predicted),
                location=f"{prefix}.residuals",
            )
        )
    return found


def _audit_grad_update(
    model: GradientUpdateModel, records, *, prefix: str
) -> list[Diagnostic]:
    X = y = None
    if records:
        X = grad_update_design(records, model.multi_node)
        y = target(records, "grad")
    return audit_linear(model.model, X, y, location=prefix)


def _audit_combined(
    model: CombinedBwdGradModel, records, *, prefix: str
) -> list[Diagnostic]:
    single = [r for r in records if r.nodes == 1]
    multi = [r for r in records if r.nodes > 1]
    found: list[Diagnostic] = []
    if model.single.is_fitted:
        X = y = None
        if single:
            X = np.array(
                [model._single_row(r.features, r.batch) for r in single]
            )
            y = target(single, "bwd+grad")
        found.extend(
            audit_linear(model.single, X, y, location=f"{prefix}.single")
        )
    if model.multi.is_fitted:
        X = y = None
        if multi:
            X = combined_bwd_grad_design(multi)
            y = target(multi, "bwd+grad")
        found.extend(
            audit_linear(model.multi, X, y, location=f"{prefix}.multi")
        )
    return found


def audit_model(
    model: object,
    data=None,
    *,
    ignore: Sequence[str] = (),
) -> list[Diagnostic]:
    """Statically audit any fitted ConvMeter model.

    ``data`` (a :class:`~repro.benchdata.records.Dataset` or record
    sequence) is optional: in-process models remember their fit design, and
    loaded models fall back to persisted feature ranges; supplying the
    campaign re-derives full design matrices and enables FIT006.
    """
    records = _records(data)
    if isinstance(model, LinearModel):
        found = audit_linear(model, location="model")
    elif isinstance(model, ForwardModel):  # covers BackwardModel
        found = _audit_forward(model, records, prefix="model")
    elif isinstance(model, GradientUpdateModel):
        found = _audit_grad_update(model, records, prefix="model")
    elif isinstance(model, CombinedBwdGradModel):
        found = _audit_combined(model, records, prefix="model")
    elif isinstance(model, TrainingStepModel):
        found = _audit_forward(model.forward, records, prefix="forward")
        found.extend(
            _audit_combined(model.bwd_grad, records, prefix="bwd_grad")
        )
        if records:
            measured = target(records, "total")
            predicted = model.predict(records)
            found.extend(
                audit_residual_bias(
                    _bias_groups(records, measured, predicted),
                    location="step.residuals",
                )
            )
    elif isinstance(model, AuditableArtifact):
        found = audit_artifact(model, records or None, location="model")
    else:
        raise TypeError(f"cannot audit {type(model).__name__}")
    return sort_diagnostics(_keep(found, ignore))


def audit_prediction_query(
    model: object,
    features,
    batch: int,
    devices: int = 1,
    nodes: int = 1,
    factor: float = DEFAULT_DOMAIN_FACTOR,
) -> list[Diagnostic]:
    """FIT004 check of one predict-time query against the fitted domain."""
    from repro.core.features import (
        combined_bwd_grad_row,
        forward_row,
        grad_update_row,
    )

    found: list[Diagnostic] = []
    if isinstance(model, ForwardModel):
        row = forward_row(features, batch, model.metric_names)
        found.extend(
            audit_queries(model.model, row, factor, location="query")
        )
    elif isinstance(model, GradientUpdateModel):
        row = grad_update_row(features, devices, model.multi_node)
        found.extend(
            audit_queries(model.model, row, factor, location="query")
        )
    elif isinstance(model, CombinedBwdGradModel):
        if nodes > 1 and model.multi.is_fitted:
            row = combined_bwd_grad_row(features, batch, devices)
            found.extend(
                audit_queries(model.multi, row, factor,
                              location="query.multi")
            )
        elif nodes == 1 and model.single.is_fitted:
            row = model._single_row(features, batch)
            found.extend(
                audit_queries(model.single, row, factor,
                              location="query.single")
            )
    elif isinstance(model, TrainingStepModel):
        found.extend(
            audit_prediction_query(
                model.forward, features, batch, devices, nodes, factor
            )
        )
        found.extend(
            audit_prediction_query(
                model.bwd_grad, features, batch, devices, nodes, factor
            )
        )
    else:
        raise TypeError(f"cannot domain-check {type(model).__name__}")
    return found


def prediction_warnings(
    model: object,
    features,
    batch: int,
    devices: int = 1,
    nodes: int = 1,
    factor: float | None = DEFAULT_DOMAIN_FACTOR,
) -> list[str]:
    """Rendered FIT004 findings for one query, for per-response surfacing.

    The string form of :func:`audit_prediction_query` that the prediction
    server attaches to every response (and ``repro predict`` prints):
    pure and side-effect free, so — unlike the :mod:`warnings`-module
    path the scaling curves use — it is safe to call concurrently from
    request-handler threads.  ``factor=None`` disables the check.
    """
    if factor is None:
        return []
    return [
        d.render()
        for d in audit_prediction_query(
            model, features, batch, devices, nodes, factor
        )
    ]


__all__ = ["audit_model", "audit_prediction_query"]
