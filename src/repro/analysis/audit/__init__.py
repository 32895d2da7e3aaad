"""Fitted-model auditor: statistical static analysis of regressions.

The third static-analysis surface, after graphs (``repro verify``) and
source (``repro lint``): ConvMeter's entire value proposition is that a
handful of linear-regression coefficients stand in for measurement, yet a
fit can go quietly wrong — sign-flipped coefficients under collinearity,
rank-killing columns, one campaign point steering the whole model, or
queries extrapolated far past the fitted range.  This package inspects
*fitted* ``LinearModel`` / ``ForwardModel`` / ``TrainingStepModel``
artifacts and their design matrices without executing any campaign, and
reports findings as :class:`repro.diagnostics.Diagnostic` records:

* ``FIT001`` — unphysical negative runtime coefficient (OLS)
* ``FIT002`` — collinear design: condition number + per-feature VIFs
* ``FIT003`` — rank deficiency, identically-zero or constant columns
* ``FIT004`` — predict-time query beyond the fitted feature range
* ``FIT005`` — high-leverage training points dominating the fit
* ``FIT006`` — systematic per-ConvNet residual bias under a shared fit
* ``FIT007`` — intercept dominating small-configuration predictions
* ``FIT008`` — unfitted artifact, or non-finite/missing trained parameters
* ``FIT009`` — missing or degenerate fitted feature ranges
* ``FIT010`` — seeded initialisation does not replay (fingerprint
  mismatch)

FIT001–FIT007 read linear coefficients and design matrices; FIT008–FIT010
audit *learned* artifacts (ResPerfNet / PerfSeer / PreNeT) through the
:class:`~repro.analysis.audit.artifacts.AuditableArtifact` protocol, and
FIT004/FIT006 generalise to them through the same protocol.

Entry points: :func:`audit_model` for any persistable model (optionally
with its campaign dataset for design-matrix and residual rules),
:func:`audit_linear` for one regression, :func:`audit_queries` /
:func:`audit_prediction_query` for FIT004 domain checks, and the
``repro audit`` CLI command.  The rule catalogue lives in
``docs/static-analysis.md``.
"""

from repro.analysis.audit.artifacts import (
    AuditableArtifact,
    artifact_prediction_warnings,
    audit_artifact,
    audit_artifact_queries,
)
from repro.analysis.audit.models import (
    audit_model,
    audit_prediction_query,
    prediction_warnings,
)
from repro.analysis.audit.rules import (
    DEFAULT_DOMAIN_FACTOR,
    FIT_RULES,
    AuditRule,
    ModelAuditError,
    audit_coefficients,
    audit_design,
    audit_linear,
    audit_queries,
    audit_residual_bias,
)
from repro.diagnostics import Diagnostic, Severity

__all__ = [
    "Diagnostic",
    "Severity",
    "AuditRule",
    "AuditableArtifact",
    "artifact_prediction_warnings",
    "audit_artifact",
    "audit_artifact_queries",
    "FIT_RULES",
    "ModelAuditError",
    "DEFAULT_DOMAIN_FACTOR",
    "audit_coefficients",
    "audit_design",
    "audit_linear",
    "audit_model",
    "audit_prediction_query",
    "audit_queries",
    "audit_residual_bias",
    "prediction_warnings",
]
