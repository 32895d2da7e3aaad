"""The serve JSON protocol: query validation and prediction.

Everything the HTTP layer does besides sockets lives here as pure
functions, so the request/response contract is testable without a server
and the ``repro serve`` responses are guaranteed to agree with the
``repro predict`` CLI (both go through the same feature extraction and
the same fitted models).

A request is either one query or a batch::

    {"model": "default", "network": "resnet18", "batch": 8}
    {"model": "default",
     "queries": [{"network": "alexnet", "batch": 1},
                 {"network": "resnet50", "image": 128, "batch": 64}]}

Plain forward and training-step queries are answered one at a time from
Python floats: each regression scores the query's design row with
:meth:`~repro.core.regression.LinearModel.predict_row`, the path
``repro predict`` takes through ``predict_one``, so a query's answer is
bit-for-bit the same alone, inside any batch and from the CLI
(``tests/test_serve.py`` gates this with exact float ``==``).

Query fields beyond the prediction coordinates:

* ``"fuse"`` — predict from the inference-fused graph's metric vector
  (the PR 5 pass pipeline), like ``repro predict --fuse``;
* ``"device"`` — a hardware preset name; the response then notes when the
  configuration would not fit that device's memory;
* ``"backend"`` — an execution-backend name from
  :data:`repro.hardware.backend.BACKEND_REGISTRY`; the memory-fit note is
  then evaluated under that backend's accounting (edge reservations,
  reduced-precision activations), defaulting the device to the backend's
  preset when ``"device"`` is unset;
* ``"node_counts"`` — switch the query to a scaling curve (Figure 8
  machinery) instead of a single step prediction.

Every response carries a ``"warnings"`` list with rendered FIT004
extrapolation diagnostics from :mod:`repro.analysis.audit` — a served
number that no measurement backs says so, per response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


from repro.analysis.audit import (
    artifact_prediction_warnings,
    prediction_warnings,
)
from repro.baselines.protocol import LearnedPredictor
from repro.benchdata.records import ConvNetFeatures, TimingRecord
from repro.core.features import forward_row
from repro.core.forward import ForwardModel
from repro.core.scalability import node_scaling_curve
from repro.core.training import TrainingStepModel
from repro.caching import LRUCache
from repro.graph.passes import resolve_transform
from repro.hardware.backend import BACKEND_REGISTRY, get_backend
from repro.hardware.device import DEVICE_PRESETS
from repro.hardware.roofline import CostProfile, graph_record
from repro.serve.registry import SERVABLE_KINDS, ArtifactEntry
from repro.zoo import get_entry

#: Protocol version echoed in every response.
PROTOCOL_VERSION = 1

#: Size of a server's (network, image, transform) feature cache.
DEFAULT_FEATURE_CACHE = 512

_QUERY_KEYS = frozenset({
    "network", "image", "batch", "nodes", "devices", "device", "fuse",
    "node_counts", "gpus_per_node", "backend",
})

_REQUEST_KEYS = frozenset({"model", "queries", "domain_factor"}) | _QUERY_KEYS


class ProtocolError(ValueError):
    """A request violates the protocol; carries the HTTP status to answer."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _positive_int(obj: dict, key: str, default: int) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"query field {key!r} must be an integer")
    if value < 1:
        raise ProtocolError(f"query field {key!r} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class PredictQuery:
    """One validated prediction coordinate."""

    network: str
    image: int = 224
    batch: int = 1
    nodes: int = 1
    devices: int = 1
    #: Hardware preset for memory-fit annotation ("" = no check).
    device: str = ""
    #: None inherits the server default; True/False overrides per query.
    fuse: bool | None = None
    #: Non-empty switches the query to a node-scaling curve.
    node_counts: tuple[int, ...] = ()
    gpus_per_node: int = 4
    #: Execution backend for the memory-fit annotation ("" = roofline).
    backend: str = ""

    @staticmethod
    def parse(obj: Any) -> "PredictQuery":
        if not isinstance(obj, dict):
            raise ProtocolError("each query must be a JSON object")
        unknown = set(obj) - _QUERY_KEYS
        if unknown:
            raise ProtocolError(
                f"unknown query field(s): {', '.join(sorted(unknown))}"
            )
        network = obj.get("network")
        if not isinstance(network, str) or not network:
            raise ProtocolError("query field 'network' (string) is required")
        try:
            get_entry(network)
        except KeyError:
            raise ProtocolError(
                f"unknown network {network!r}; see `repro models`", status=404
            )
        device = obj.get("device", "")
        if not isinstance(device, str):
            raise ProtocolError("query field 'device' must be a string")
        if device and device not in DEVICE_PRESETS:
            raise ProtocolError(
                f"unknown device {device!r}; see `repro devices`", status=404
            )
        backend = obj.get("backend", "")
        if not isinstance(backend, str):
            raise ProtocolError("query field 'backend' must be a string")
        if backend and backend not in BACKEND_REGISTRY:
            raise ProtocolError(
                f"unknown backend {backend!r}; see `repro devices`",
                status=404,
            )
        if backend:
            # Fail the query, not the note: an invalid pairing (e.g. the
            # edge backend on a CPU preset) is a client error, not a warning.
            preset = DEVICE_PRESETS[device] if device else None
            try:
                get_backend(backend, preset)
            except ValueError as exc:
                raise ProtocolError(str(exc))
        fuse = obj.get("fuse")
        if fuse is not None and not isinstance(fuse, bool):
            raise ProtocolError("query field 'fuse' must be a boolean")
        raw_counts = obj.get("node_counts", ())
        if not isinstance(raw_counts, (list, tuple)):
            raise ProtocolError("query field 'node_counts' must be a list")
        node_counts = []
        for n in raw_counts:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ProtocolError(
                    "query field 'node_counts' must hold integers >= 1"
                )
            node_counts.append(n)
        return PredictQuery(
            network=network,
            image=_positive_int(obj, "image", 224),
            batch=_positive_int(obj, "batch", 1),
            nodes=_positive_int(obj, "nodes", 1),
            devices=_positive_int(obj, "devices", 1),
            device=device,
            fuse=fuse,
            node_counts=tuple(node_counts),
            gpus_per_node=_positive_int(obj, "gpus_per_node", 4),
            backend=backend,
        )


@dataclass(frozen=True)
class PredictRequest:
    """One validated /predict body."""

    model: str | None
    queries: tuple[PredictQuery, ...]
    #: False when the body carried inline query fields (single response
    #: object) rather than a "queries" list.
    batched: bool
    domain_factor: float | None = None

    @staticmethod
    def parse(obj: Any) -> "PredictRequest":
        if not isinstance(obj, dict):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(obj) - _REQUEST_KEYS
        if unknown:
            raise ProtocolError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        model = obj.get("model")
        if model is not None and not isinstance(model, str):
            raise ProtocolError("request field 'model' must be a string")
        factor = obj.get("domain_factor")
        if factor is not None:
            if isinstance(factor, bool) or not isinstance(factor, (int, float)):
                raise ProtocolError(
                    "request field 'domain_factor' must be a number"
                )
            if factor <= 0:
                raise ProtocolError(
                    "request field 'domain_factor' must be positive"
                )
            factor = float(factor)
        if "queries" in obj:
            raw = obj["queries"]
            if not isinstance(raw, list) or not raw:
                raise ProtocolError(
                    "request field 'queries' must be a non-empty list"
                )
            queries = tuple(PredictQuery.parse(q) for q in raw)
            return PredictRequest(model, queries, True, factor)
        query = PredictQuery.parse(
            {k: v for k, v in obj.items() if k in _QUERY_KEYS}
        )
        return PredictRequest(model, (query,), False, factor)


# -- feature resolution ------------------------------------------------------


class FeatureCache:
    """Bounded LRU of (network, image, transform) -> (profile, features).

    The key identifies the costed graph completely: zoo builds are
    deterministic and the transform string resolves to a deterministic
    pass pipeline, so two equal keys always denote the same costed graph.
    Only a miss resolves the transform and reads (and fills) the shared
    graph record cache; this layer stays separate because its counters
    are ``/metrics``' ``feature_cache``.
    """

    def __init__(self) -> None:
        self._cache: LRUCache[
            tuple[str, int, str], tuple[CostProfile, ConvNetFeatures]
        ] = LRUCache(maxsize=DEFAULT_FEATURE_CACHE)

    def lookup(
        self, network: str, image: int, transform: str
    ) -> tuple[CostProfile, ConvNetFeatures]:
        def build() -> tuple[CostProfile, ConvNetFeatures]:
            record = graph_record(
                "model", network, image, resolve_transform(transform)
            )
            return record.profile, record.features

        return self._cache.get_or_compute((network, image, transform), build)

    def stats(self):
        return self._cache.stats()

    def __len__(self) -> int:
        return len(self._cache)


# -- request answering -------------------------------------------------------


def _linear_prediction(
    kind: str,
    model: ForwardModel | TrainingStepModel,
    query: PredictQuery,
    profile: CostProfile,
    features: ConvNetFeatures,
    fused: bool,
    factor: float | None,
) -> dict[str, Any]:
    """One plain forward or training-step query, scored row by row.

    Each regression the answer touches scores the query's design row with
    :meth:`~repro.core.regression.LinearModel.predict_row`, the path
    ``predict_one`` takes, and screens it with ``row_out_of_domain``, so
    only flagged queries pay for :func:`prediction_warnings`, whose text
    stays the single source of the served warnings.
    """
    batch = query.batch
    training = isinstance(model, TrainingStepModel)
    forward = model.forward if training else model
    regression = forward.model
    row = forward_row(features, batch, forward.metric_names)
    t = regression.predict_row(row)
    flagged = factor is not None and regression.row_out_of_domain(row, factor)
    if training:
        try:
            regression, row = model.bwd_grad.regression_row(
                features, batch, query.devices, query.nodes
            )
        except RuntimeError as exc:
            raise ProtocolError(str(exc))
        bwd = regression.predict_row(row)
        if factor is not None and regression.row_out_of_domain(row, factor):
            flagged = True
    warnings = prediction_warnings(
        model, features, batch,
        devices=query.devices, nodes=query.nodes, factor=factor,
    ) if flagged else []
    if query.device or query.backend:  # no note otherwise; skip the call
        warnings += _memory_note(query, profile, training)
    if not training:
        return {
            "kind": kind,
            "network": query.network,
            "image": query.image,
            "batch": batch,
            "nodes": query.nodes,
            "devices": query.devices,
            "fuse": fused,
            "t_seconds": t,
            "throughput": batch / t,
            "warnings": warnings,
        }
    total = t + bwd
    return {
        "kind": "training_step",
        "network": query.network,
        "image": query.image,
        "batch": batch,
        "nodes": query.nodes,
        "devices": query.devices,
        "fuse": fused,
        "t_seconds": total,
        "phases": {"forward": t, "backward_plus_update": bwd},
        "throughput": batch * query.devices / total,
        "warnings": warnings,
    }


def _memory_note(
    query: PredictQuery, profile: CostProfile, training: bool
) -> list[str]:
    """Memory-fit annotation, backend-aware.

    A ``backend`` without a ``device`` checks against the backend's
    default device (e.g. the edge backend's Jetson preset); a bare
    ``device`` keeps the historical roofline check.
    """
    if not query.device and not query.backend:
        return []
    preset = DEVICE_PRESETS[query.device] if query.device else None
    backend = get_backend(query.backend, preset)
    if backend.fits(profile, query.batch, training=training):
        return []
    under = (
        f"{query.backend} backend on {backend.device.name}"
        if query.backend
        else query.device
    )
    return [
        f"configuration exceeds {under} memory at batch "
        f"{query.batch}; the prediction extrapolates past what the device "
        "could measure"
    ]


def _scaling_prediction(
    entry: ArtifactEntry,
    query: PredictQuery,
    features: ConvNetFeatures,
    profile: CostProfile,
    fused: bool,
    factor: float | None,
) -> dict[str, Any]:
    model = entry.model
    if not isinstance(model, TrainingStepModel):
        raise ProtocolError(
            f"artifact {entry.name!r} ({entry.kind}) cannot answer scaling "
            "queries; fit a training_step model"
        )
    warnings: list[str] = []
    if factor is not None:
        for n in query.node_counts:
            warnings.extend(
                prediction_warnings(
                    model, features, query.batch,
                    devices=n * query.gpus_per_node, nodes=n, factor=factor,
                )
            )
    # The curve itself runs with the domain check silenced — the per-config
    # warnings above already cover it without touching the (process-global)
    # warnings machinery from server threads.
    points = node_scaling_curve(
        model, features, query.batch, query.node_counts,
        gpus_per_node=query.gpus_per_node, domain_factor=None,
    )
    return {
        "kind": "scaling",
        "network": query.network,
        "image": query.image,
        "per_device_batch": query.batch,
        "gpus_per_node": query.gpus_per_node,
        "fuse": fused,
        "points": [
            {
                "nodes": p.x,
                "devices": p.devices,
                "per_device_batch": p.per_device_batch,
                "step_seconds": p.step_time,
                "throughput": p.throughput,
            }
            for p in points
        ],
        "warnings": sorted(set(warnings)),
        **({"memory": note} if (note := _memory_note(query, profile, True))
           else {}),
    }


def answer_request(
    request: PredictRequest,
    entry: ArtifactEntry,
    cache: FeatureCache,
    *,
    default_transform: str = "",
    default_domain_factor: float | None = 10.0,
) -> dict[str, Any]:
    """Evaluate a validated request against one registry artifact.

    Returns the JSON-safe response body.  Scaling queries are answered
    first, then the plain ones: forward and training-step queries one at
    a time through their regressions' scalar row path, learned-artifact
    queries in one ``predict`` call over the whole list.
    """
    model = entry.model
    if entry.kind not in SERVABLE_KINDS:
        raise ProtocolError(
            f"artifact {entry.name!r} has kind {entry.kind!r}; servable "
            f"kinds: {', '.join(SERVABLE_KINDS)}"
        )
    factor = (
        request.domain_factor
        if request.domain_factor is not None
        else default_domain_factor
    )
    resolved: list[tuple[PredictQuery, CostProfile, ConvNetFeatures, bool]] = []
    for query in request.queries:
        fuse = (
            (default_transform == "inference")
            if query.fuse is None
            else query.fuse
        )
        transform = "inference" if fuse else ""
        # Per-query try is the protocol contract: the error message must
        # name the offending network@image, and lookup() is cached, so the
        # handler cost is paid once per distinct profile, not per query.
        try:  # repro-lint: disable=PERF008
            profile, features = cache.lookup(
                query.network, query.image, transform
            )
        except (ValueError, KeyError) as exc:
            raise ProtocolError(
                f"cannot profile {query.network}@{query.image}: {exc}"
            )
        resolved.append((query, profile, features, fuse))

    predictions: list[dict[str, Any]] = [{} for _ in resolved]
    plain = [i for i, (q, *_rest) in enumerate(resolved) if not q.node_counts]
    for i, (query, profile, features, fused) in enumerate(resolved):
        if query.node_counts:
            predictions[i] = _scaling_prediction(
                entry, query, features, profile, fused, factor
            )

    if plain:
        if isinstance(model, (ForwardModel, TrainingStepModel)):
            for i in plain:
                predictions[i] = _linear_prediction(
                    entry.kind, model, *resolved[i], factor
                )
        elif isinstance(model, LearnedPredictor):
            # Learned artifacts predict from timing-record coordinates;
            # the queries become synthetic records (measurements unused —
            # the sentinel 1.0 is never read by predict).
            records = [
                TimingRecord(
                    model=resolved[i][0].network,
                    device=resolved[i][0].device,
                    image_size=resolved[i][0].image,
                    batch=resolved[i][0].batch,
                    nodes=resolved[i][0].nodes,
                    devices=resolved[i][0].devices,
                    scenario="inference",
                    features=resolved[i][2],
                    t_fwd=1.0,
                )
                for i in plain
            ]
            times = model.predict(records).tolist()
            training = model.target == "total"
            for j, i in enumerate(plain):
                query, profile, features, fused = resolved[i]
                t = times[j]
                scale = query.devices if training else 1
                predictions[i] = {
                    "kind": entry.kind,
                    "target": model.target,
                    "network": query.network,
                    "image": query.image,
                    "batch": query.batch,
                    "nodes": query.nodes,
                    "devices": query.devices,
                    "fuse": fused,
                    "t_seconds": t,
                    "throughput": query.batch * scale / t,
                    "warnings": artifact_prediction_warnings(
                        model, records[j : j + 1], factor
                    )
                    + _memory_note(query, profile, training),
                }
        else:  # pragma: no cover - SERVABLE_KINDS restricts model types
            raise ProtocolError(
                f"cannot predict with {type(model).__name__}"
            )

    body: dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "model": entry.name,
        "kind": entry.kind,
    }
    if request.batched:
        body["count"] = len(predictions)
        body["predictions"] = predictions
    else:
        body["prediction"] = predictions[0]
    return body
