"""PerfSeer-style graph-structured predictor.

PerfSeer-class predictors embed the compute *graph* — per-layer features
propagated over the topology — where ConvMeter deliberately collapses a
network to five aggregate metrics.  This stand-in keeps that structural
signal while staying a linear solve at the top:

1. Per layer, take ``[flops, input_elems, output_elems]`` (one sample).
2. Run ``rounds`` of message passing over the undirected layer topology
   from :class:`~repro.graph.graph.ComputeGraph`: each layer's vector is
   averaged half-and-half with the mean of its neighbours' vectors, so a
   layer's feature carries its structural context (what feeds it, what it
   feeds).
3. Sum the smoothed vectors into layer-class buckets (regular /
   depthwise / pointwise convolutions, linears, other), scale the
   activation-linked components by the batch, and read the runtime out
   with the shared :class:`~repro.core.regression.LinearModel`.

``aggregation="identity"`` is the degraded linear special case: no
message passing, all convolutions in one bucket — exactly the ConvMeter
forward design ``[b·F, b·I, b·O, 1]`` recomputed from the graph, which
the differential test requires to match :class:`ForwardModel`
**bit-identically** (same design, same solver, same reduction order).
"""

from __future__ import annotations

from typing import Any, Sequence

import hashlib

import numpy as np

from repro.baselines.protocol import LearnedPredictor
from repro.benchdata.records import TimingRecord
from repro.caching import LRUCache
from repro.core.regression import LinearModel
from repro.graph.metrics import LayerCost, graph_costs
from repro.zoo.registry import build_model

#: Layer-class buckets the smoothed per-layer features aggregate into.
BUCKETS = ("conv", "conv_dw", "conv_pw", "linear", "other")

#: Per-bucket activation-linked components (batch-scaled at query time).
_COMPONENTS = ("flops", "inputs", "outputs")

#: Bounded cache of per-(model, image, rounds) structural features — the
#: graph walk runs once per architecture/image, not once per record.  It
#: cannot read the shared graph record: message passing needs the graph's
#: edges, which a record does not keep.
STRUCTURE_CACHE: LRUCache[
    tuple[str, int, int], tuple[dict[str, tuple[float, float, float]],
                                float, float]
] = LRUCache(maxsize=256)


def _bucket(cost: LayerCost) -> str:
    if cost.is_conv:
        if cost.is_depthwise:
            return "conv_dw"
        if cost.is_pointwise:
            return "conv_pw"
        return "conv"
    if cost.layer_type in ("Linear", "TokenLinear"):
        return "linear"
    return "other"


def graph_structure_features(
    model: str, image: int, rounds: int
) -> tuple[dict[str, tuple[float, float, float]], float, float]:
    """Bucketed, message-passed per-sample features of one architecture.

    Returns ``(bucket -> (flops, inputs, outputs), weights, layers)``.
    Pure function of its arguments (zoo builds are deterministic), cached.
    """
    def build():
        graph = build_model(model, image)
        costs = graph_costs(graph)
        vec: dict[str, list[float]] = {
            c.name: [float(c.flops), float(c.input_elems),
                     float(c.output_elems)]
            for c in costs
        }
        neighbours: dict[str, list[str]] = {name: [] for name in vec}
        for c in costs:
            for parent in graph.node(c.name).inputs:
                if parent in vec:
                    neighbours[c.name].append(parent)
                    neighbours[parent].append(c.name)
        for _ in range(rounds):
            smoothed: dict[str, list[float]] = {}
            for name, v in vec.items():
                around = neighbours[name]
                if not around:
                    smoothed[name] = v
                    continue
                smoothed[name] = [
                    0.5 * v[k]
                    + 0.5 * (sum(vec[u][k] for u in around) / len(around))
                    for k in range(3)
                ]
            vec = smoothed
        buckets = {b: [0.0, 0.0, 0.0] for b in BUCKETS}
        for c in costs:
            acc = buckets[_bucket(c)]
            v = vec[c.name]
            for k in range(3):
                acc[k] += v[k]
        weights = float(sum(c.params for c in costs))
        layers = float(sum(1 for c in costs if c.params > 0))
        return (
            {b: tuple(acc) for b, acc in buckets.items()},
            weights,
            layers,
        )

    return STRUCTURE_CACHE.get_or_compute((model, image, rounds), build)


class PerfSeer(LearnedPredictor):
    """Graph-structured runtime predictor with a linear readout."""

    kind = "perfseer"

    def __init__(
        self,
        target_phase: str = "fwd",
        seed: int = 0,
        *,
        rounds: int = 2,
        aggregation: str = "buckets",
        method: str = "ols",
        weighting: str = "relative",
    ) -> None:
        if aggregation not in ("buckets", "identity"):
            raise ValueError(
                f"unknown aggregation {aggregation!r}; "
                "options: buckets, identity"
            )
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        super().__init__(target_phase, seed)
        self.rounds = rounds if aggregation == "buckets" else 0
        self.aggregation = aggregation
        self.method = method
        self.weighting = weighting
        self.readout = LinearModel(method=method, weighting=weighting)
        #: Columns kept at fit time (all-zero buckets are dropped — the
        #: runtime twin of FIT003; the mask is persisted so predictions
        #: rebuild the same reduced design).
        self.kept: tuple[int, ...] | None = None
        #: True when the fit dataset spanned multiple device counts.
        self.use_devices = False
        self.init_fingerprint = self._config_fingerprint()

    # -- features ----------------------------------------------------------

    def feature_names(self) -> tuple[str, ...]:
        if self.aggregation == "identity":
            return ("b*flops", "b*inputs", "b*outputs", "intercept")
        names = tuple(
            f"b*{bucket}.{comp}"
            for bucket in BUCKETS
            for comp in _COMPONENTS
        ) + ("weights", "layers")
        if self.use_devices:
            names = names + ("devices",)
        return names + ("intercept",)

    def query_matrix(
        self, records: Sequence[TimingRecord]
    ) -> np.ndarray:
        names = self.feature_names()
        X = np.empty((len(records), len(names)), dtype=np.float64)
        for i, r in enumerate(records):
            if self.aggregation == "identity":
                buckets, _w, _l = graph_structure_features(
                    r.model, r.image_size, 0
                )
                flops = sum(
                    buckets[b][0] for b in BUCKETS
                )
                conv_in = sum(
                    buckets[b][1]
                    for b in ("conv", "conv_dw", "conv_pw")
                )
                conv_out = sum(
                    buckets[b][2]
                    for b in ("conv", "conv_dw", "conv_pw")
                )
                X[i] = (
                    r.batch * flops, r.batch * conv_in,
                    r.batch * conv_out, 1.0,
                )
                continue
            buckets, weights, layers = graph_structure_features(
                r.model, r.image_size, self.rounds
            )
            row = [
                r.batch * buckets[bucket][k]
                for bucket in BUCKETS
                for k in range(3)
            ]
            row.extend([weights, layers])
            if self.use_devices:
                row.append(float(r.devices))
            row.append(1.0)
            X[i] = row
        return X

    # -- fit / predict -----------------------------------------------------

    def _fit_rows(
        self,
        X: np.ndarray,
        y: np.ndarray,
        records: Sequence[TimingRecord],
    ) -> None:
        keep = np.flatnonzero(np.abs(X).max(axis=0) > 0.0)
        if X.shape[0] < keep.size:
            raise ValueError(
                f"PerfSeer's bucketed design has {keep.size} active "
                f"coefficients but only {X.shape[0]} training rows; "
                "widen the sweep grid (or use aggregation='identity')"
            )
        self.kept = tuple(int(j) for j in keep)
        names = self.feature_names()
        self.readout.feature_names = tuple(names[j] for j in self.kept)
        self.readout.fit(X[:, keep], y)

    def fit(self, data) -> "PerfSeer":
        records = list(data)
        self.use_devices = (
            self.aggregation == "buckets"
            and len({r.devices for r in records}) > 1
        )
        # Re-derive ranges and the design with the devices decision made;
        # the base class handles canonical ordering from here.
        super().fit(records)
        return self

    def _predict_rows(self, X: np.ndarray) -> np.ndarray:
        if self.kept is None:
            raise RuntimeError("predictor is not fitted")
        return self.readout.predict(X[:, list(self.kept)])

    # -- audit surface -----------------------------------------------------

    def parameter_vector(self) -> np.ndarray:
        if self.readout.coef is None:
            return np.empty(0, dtype=np.float64)
        return np.asarray(self.readout.coef, dtype=np.float64)

    def _config_fingerprint(self) -> str:
        key = "\x1f".join(
            repr(part)
            for part in (
                self.kind, self.seed, self.rounds, self.aggregation,
                self.method, self.weighting,
            )
        )
        return hashlib.blake2b(key.encode(), digest_size=16).hexdigest()

    def replay_init_fingerprint(self) -> str:
        """PerfSeer has no stochastic init; the 'initialisation' is its
        configuration, so the replay re-derives the config fingerprint."""
        return self._config_fingerprint()

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        state = self._base_state()
        state["config"] = {
            "rounds": self.rounds,
            "aggregation": self.aggregation,
            "method": self.method,
            "weighting": self.weighting,
        }
        state["use_devices"] = self.use_devices
        state["kept"] = None if self.kept is None else list(self.kept)
        state["coef"] = (
            None if self.readout.coef is None
            else self.readout.coef.tolist()
        )
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "PerfSeer":
        config = state["config"]
        model = cls(
            target_phase=state["target"],
            seed=int(state["seed"]),
            rounds=int(config["rounds"]),
            aggregation=config["aggregation"],
            method=config["method"],
            weighting=config["weighting"],
        )
        model.use_devices = bool(state["use_devices"])
        model._restore_base(state)
        if state["kept"] is not None:
            model.kept = tuple(int(j) for j in state["kept"])
            model.readout.feature_names = tuple(
                model.feature_names()[j] for j in model.kept
            )
        if state["coef"] is not None:
            model.readout.coef = np.asarray(
                state["coef"], dtype=np.float64
            )
        return model
