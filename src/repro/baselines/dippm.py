"""DIPPM stand-in (Panner Selvam & Brorsson, Euro-Par '23).

DIPPM predicts inference latency with a graph neural network trained for
hundreds of epochs on a fixed A100 dataset.  The genuine model and dataset
are not available, so this surrogate preserves the two properties the
paper's Figure 6 comparison exercises:

1. It is a *learned* predictor bound to its training distribution — a
   log-space ridge/nearest-neighbour ensemble over graph-level features,
   trained on a coarse measurement grid (its "dataset"), so accuracy decays
   off-grid and on unseen architectures.
2. Its graph parser is brittle: SqueezeNet-style fire modules (two parallel
   unnormalised conv→activation expand branches joined by a concat) are
   rejected, mirroring DIPPM's inability to parse ``squeezenet1_0``
   (Section 4.1.3: "DIPPM was unable to parse the model graph of
   squeezenet1_0").
"""

from __future__ import annotations

import numpy as np

from repro.benchdata.records import ConvNetFeatures
from repro.graph.graph import ComputeGraph
from repro.graph.layers import Activation, Concat, Conv2d
from repro.hardware.device import A100_80GB, DeviceSpec
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.memory import fits
from repro.hardware.roofline import graph_record
from repro.zoo.registry import build_model


class GraphUnsupportedError(RuntimeError):
    """The surrogate's graph parser cannot handle this architecture."""


def check_graph_supported(graph: ComputeGraph) -> None:
    """Reject fire-module topologies (the DIPPM parser limitation).

    A fire module is a two-input Concat whose branches are each a bare
    conv → activation pair hanging off one shared producer.
    """
    for node in graph:
        if not isinstance(node.layer, Concat) or len(node.inputs) != 2:
            continue
        conv_parents = []
        for branch in node.inputs:
            act = graph.node(branch)
            if not isinstance(act.layer, Activation):
                break
            conv = graph.node(act.inputs[0])
            if not isinstance(conv.layer, Conv2d):
                break
            conv_parents.append(conv.inputs[0])
        else:
            if len(conv_parents) == 2 and conv_parents[0] == conv_parents[1]:
                raise GraphUnsupportedError(
                    f"cannot parse graph {graph.name!r}: unsupported "
                    "parallel expand branches (fire module)"
                )


def _feature_vector(features: ConvNetFeatures, batch: int) -> np.ndarray:
    """Log-space graph-level features (the surrogate's GNN embedding)."""
    raw = np.array(
        [
            features.flops,
            features.inputs,
            features.outputs,
            features.weights,
            float(features.layers),
            float(batch),
        ]
    )
    return np.log(raw)


class DippmSurrogate:
    """A learned latency predictor bound to a fixed training grid."""

    #: The surrogate's dataset grid: one image size, four batch sizes —
    #: coarse on purpose, like any pre-collected benchmark corpus.
    TRAIN_BATCHES: tuple[int, ...] = (16, 64, 256, 1024)
    TRAIN_IMAGE: int = 128

    def __init__(
        self,
        device: DeviceSpec = A100_80GB,
        seed: int = 0,
        ridge_lambda: float = 1e-2,
        knn: int = 3,
        ridge_weight: float = 0.25,
    ) -> None:
        if not 0.0 <= ridge_weight <= 1.0:
            raise ValueError("ridge_weight must be in [0, 1]")
        self.device = device
        self.seed = seed
        self.ridge_lambda = ridge_lambda
        self.knn = knn
        self.ridge_weight = ridge_weight
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._coef: np.ndarray | None = None
        self._norm: tuple[np.ndarray, np.ndarray] | None = None

    # -- training --------------------------------------------------------

    def train(self, model_names: list[str]) -> "DippmSurrogate":
        """Collect the surrogate's dataset and fit its predictor.

        Unparseable architectures are skipped, as DIPPM's pipeline skips
        graphs its parser rejects.
        """
        executor = SimulatedExecutor(self.device, seed=self.seed + 7919)
        rows, targets = [], []
        for name in model_names:
            graph = build_model(name, self.TRAIN_IMAGE)
            try:
                check_graph_supported(graph)
            except GraphUnsupportedError:
                continue
            record = graph_record("model", name, self.TRAIN_IMAGE, graph=graph)
            profile, features = record.profile, record.features
            for batch in self.TRAIN_BATCHES:
                if not fits(profile, batch, self.device, training=False):
                    continue
                t = executor.measure_inference(profile, batch)
                rows.append(_feature_vector(features, batch))
                targets.append(np.log(t))
        if len(rows) < 8:
            raise ValueError("surrogate needs at least 8 training points")
        X = np.array(rows)
        y = np.array(targets)
        mean, std = X.mean(axis=0), X.std(axis=0)
        std[std == 0.0] = 1.0
        Xn = np.hstack([(X - mean) / std, np.ones((X.shape[0], 1))])
        lam = self.ridge_lambda * np.eye(Xn.shape[1])
        lam[-1, -1] = 0.0  # do not penalise the intercept
        self._coef = np.linalg.solve(Xn.T @ Xn + lam, Xn.T @ y)
        self._X, self._y, self._norm = Xn[:, :-1], y, (mean, std)
        return self

    # -- prediction --------------------------------------------------------

    def predict_model(self, model_name: str, batch: int,
                      image_size: int | None = None) -> float:
        """Predicted inference latency, seconds."""
        if self._coef is None or self._norm is None:
            raise RuntimeError("surrogate is not trained")
        image = image_size if image_size is not None else self.TRAIN_IMAGE
        graph = build_model(model_name, image)
        check_graph_supported(graph)
        features = graph_record("model", model_name, image, graph=graph).features
        x = _feature_vector(features, batch)
        mean, std = self._norm
        xn = (x - mean) / std
        ridge_pred = float(np.append(xn, 1.0) @ self._coef)
        # Blend with the k nearest training points — the memorisation
        # component that makes the predictor grid-bound.
        d = np.linalg.norm(self._X - xn, axis=1)
        nearest = np.argsort(d)[: self.knn]
        knn_pred = float(self._y[nearest].mean())
        w = self.ridge_weight
        return float(np.exp(w * ridge_pred + (1.0 - w) * knn_pred))
