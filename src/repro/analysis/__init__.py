"""Reporting utilities: tables, coefficient interpretation, the
related-work matrix — and the static-analysis fronts: the graph IR
verifier (:mod:`repro.analysis.verify`), the fitted-model auditor
(:mod:`repro.analysis.audit`), and the concurrency-hazard analyzer
(:mod:`repro.analysis.concurrency`).

The names below resolve on first access (PEP 562), so importing one front
— a campaign resume needs only the verifier's rule ids — does not import
the others.
"""

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "GraphVerificationError": "verify",
    "verify_graph": "verify",
    "verify_model": "verify",
    "CONCURRENCY_RULES": "concurrency",
    "analyze_paths": "concurrency",
    "analyze_source": "concurrency",
    "analyze_sources": "concurrency",
    "FIT_RULES": "audit",
    "ModelAuditError": "audit",
    "audit_linear": "audit",
    "audit_model": "audit",
    "audit_prediction_query": "audit",
    "format_table": "tables",
    "format_series": "tables",
    "CoefficientInterpretation": "coefficients",
    "interpret_forward_model": "coefficients",
    "sanity_check": "coefficients",
    "RELATED_WORK": "related_work",
    "MethodCapabilities": "related_work",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
