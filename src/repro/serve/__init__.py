"""Prediction-as-a-service: the `repro serve` HTTP layer.

The paper's end product is a fitted predictor you *query*; this package
is the long-running service surface over it (ROADMAP item 1).  Three
modules, stdlib-only (``http.server`` threading — no new dependencies):

* :mod:`repro.serve.registry` — versioned directory of v2 model
  artifacts with hot reload on file change and serve-time rejection of
  v1 documents;
* :mod:`repro.serve.protocol` — the JSON request/response contract and
  the per-query scalar predict (bit-equal to ``repro predict``);
* :mod:`repro.serve.server` — the threaded HTTP server with
  ``/predict``, ``/healthz`` and ``/metrics`` (trace-counter backed).

See ``docs/serving.md`` for the protocol and registry layout.
"""

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FeatureCache,
    PredictQuery,
    PredictRequest,
    ProtocolError,
    answer_request,
)
from repro.serve.registry import (
    ArtifactEntry,
    ModelRegistry,
    RegistryError,
    UnknownArtifactError,
    write_manifest,
)
from repro.serve.server import PredictionServer, make_server

__all__ = [
    "PROTOCOL_VERSION",
    "ArtifactEntry",
    "FeatureCache",
    "ModelRegistry",
    "PredictQuery",
    "PredictRequest",
    "PredictionServer",
    "ProtocolError",
    "RegistryError",
    "UnknownArtifactError",
    "answer_request",
    "make_server",
    "write_manifest",
]
