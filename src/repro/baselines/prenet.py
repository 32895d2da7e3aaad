"""PreNeT-style transformer-workload predictor (arXiv:2412.15519).

PreNeT predicts training/inference latency for transformer workloads by
conditioning a learned regressor on workload-decomposition features.
This stand-in rides on :mod:`repro.extensions.transformer`: the metric
vector uses transformer-aware Inputs/Outputs (primary compute layers, not
just convolutions) and the feature row carries the graph's FLOP-share
decomposition (conv / token-linear / attention / linear), so one trained
artifact understands both ConvNet and ViT queries.  The regressor is the
shared residual MLP core (``repro.baselines.nn``) in log space.

``features="forward"`` with ``hidden=0`` is the degraded linear special
case — the transformer-aware forward design ``[b·F, b·I*, b·O*]``, raw
target — which the differential test pins against
:class:`~repro.core.regression.LinearModel` (documented tolerance: 1%
relative on predictions after Adam converges).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.baselines.protocol import MLPPredictor
from repro.benchdata.records import TimingRecord
from repro.caching import LRUCache
from repro.extensions.transformer import (
    WORKLOAD_GROUPS,
    transformer_features,
    workload_decomposition,
)
from repro.hardware.roofline import zoo_profile

_MAGNITUDE_FEATURES = (
    "b*flops", "b*inputs", "b*outputs", "weights", "batch", "image",
)
_SHARE_FEATURES = tuple(f"share.{g}" for g in WORKLOAD_GROUPS)
_FORWARD_FEATURES = ("b*flops", "b*inputs", "b*outputs")

#: Bounded cache of per-(model, image) transformer-aware features and
#: workload shares, derived from the shared graph record's profile.
WORKLOAD_CACHE: LRUCache[
    tuple[str, int], tuple[tuple[float, float, float, float], tuple[float, ...]]
] = LRUCache(maxsize=256)


def _workload(model: str, image: int):
    def build():
        profile = zoo_profile(model, image)
        f = transformer_features(profile)
        shares = workload_decomposition(profile)
        return (
            (f.flops, f.inputs, f.outputs, f.weights),
            tuple(shares[g] for g in WORKLOAD_GROUPS),
        )

    return WORKLOAD_CACHE.get_or_compute((model, image), build)


class PreNeT(MLPPredictor):
    """Workload-decomposition-aware residual MLP latency predictor."""

    kind = "prenet"

    def __init__(
        self,
        target_phase: str = "fwd",
        seed: int = 0,
        *,
        features: str = "workload",
        hidden: int = 16,
        blocks: int = 1,
        epochs: int = 400,
        lr: float = 0.02,
        patience: int = 50,
        val_fraction: float = 0.2,
    ) -> None:
        if features not in ("workload", "forward"):
            raise ValueError(
                f"unknown feature mode {features!r}; "
                "options: workload, forward"
            )
        super().__init__(
            target_phase, seed,
            hidden=hidden, blocks=blocks, epochs=epochs, lr=lr,
            patience=patience, val_fraction=val_fraction,
            log_target=features == "workload",
        )
        self.features_mode = features

    def feature_names(self) -> tuple[str, ...]:
        if self.features_mode == "forward":
            return _FORWARD_FEATURES
        return _MAGNITUDE_FEATURES + _SHARE_FEATURES

    def log_columns(self) -> np.ndarray:
        if self.features_mode == "forward":
            return np.zeros(len(_FORWARD_FEATURES), dtype=bool)
        # Magnitudes go to log space; the share columns stay raw (they
        # live in [0, 1] and may legitimately be zero).
        return np.concatenate([
            np.ones(len(_MAGNITUDE_FEATURES), dtype=bool),
            np.zeros(len(_SHARE_FEATURES), dtype=bool),
        ])

    def query_matrix(
        self, records: Sequence[TimingRecord]
    ) -> np.ndarray:
        X = np.empty(
            (len(records), len(self.feature_names())), dtype=np.float64
        )
        for i, r in enumerate(records):
            (flops, inputs, outputs, weights), shares = _workload(
                r.model, r.image_size
            )
            if self.features_mode == "forward":
                X[i] = (
                    r.batch * flops, r.batch * inputs, r.batch * outputs,
                )
                continue
            X[i] = (
                r.batch * flops,
                r.batch * inputs,
                r.batch * outputs,
                weights,
                float(r.batch),
                float(r.image_size),
                *shares,
            )
        return X

    # -- persistence -------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        state = self._mlp_state()
        state["features_mode"] = self.features_mode
        return state

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "PreNeT":
        config = state["config"]
        model = cls(
            target_phase=state["target"],
            seed=int(state["seed"]),
            features=state["features_mode"],
            hidden=int(config["hidden"]),
            blocks=int(config["blocks"]),
            epochs=int(config["epochs"]),
            lr=float(config["lr"]),
            patience=int(config["patience"]),
            val_fraction=float(config["val_fraction"]),
        )
        model._restore_mlp(state)
        return model
