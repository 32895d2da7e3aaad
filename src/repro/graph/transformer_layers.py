"""Transformer layers for the IR — the paper's future-work extension.

Section 3: "the same analogy can potentially be applied to other
deep-learning model categories with minor effort, such as language models
[and] vision transformers."  These layers make that concrete: token
sequences are represented as ``TensorShape(dim, seq_len, 1)`` feature maps
so the existing graph machinery (builder, metrics, roofline profiling)
applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graph.layers import Layer
from repro.graph.tensor import TensorShape, anywhere, at_image


@dataclass(frozen=True)
class TokensFromFeatureMap(Layer):
    """Flatten a (C, H, W) patch grid into (C, H·W, 1) tokens.

    Learned extra tokens are modelled separately by :class:`ClassToken`.
    """

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial:
            raise ValueError("TokensFromFeatureMap requires a spatial input")
        return TensorShape(shape.channels, shape.height * shape.width, 1)


@dataclass(frozen=True)
class ClassToken(Layer):
    """Prepend a learned class token: (d, S, 1) → (d, S+1, 1)."""

    dim: int = 0

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if anywhere(shape.channels != self.dim):
            raise ValueError(
                f"ClassToken expects dim {self.dim}, got {shape.channels}"
            )
        return TensorShape(shape.channels, shape.height + 1, shape.width)

    def param_count(self) -> int:
        return self.dim


@dataclass(frozen=True)
class PositionalEmbedding(Layer):
    """Add a learned positional embedding of shape (dim, seq_len).

    Image-dependent: ``seq_len`` is the token count of the input, so over
    an image axis it is the input's token column.
    """

    dim: int = 0
    seq_len: int = 0

    IMAGE_DEPENDENT = True

    def at(self, i: int) -> "PositionalEmbedding":
        return PositionalEmbedding(self.dim, at_image(self.seq_len, i))

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if anywhere(shape.channels != self.dim) or anywhere(
            shape.height != self.seq_len
        ):
            raise ValueError(
                f"PositionalEmbedding expects ({self.dim}, {self.seq_len}),"
                f" got {shape}"
            )
        return shape

    def param_count(self) -> int:
        return self.dim * self.seq_len

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        return output.numel  # one add per element


@dataclass(frozen=True)
class LayerNorm(Layer):
    """Layer normalisation over the channel (embedding) dimension."""

    dim: int = 0

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if anywhere(shape.channels != self.dim):
            raise ValueError(
                f"LayerNorm expects dim {self.dim}, got {shape.channels}"
            )
        return shape

    def param_count(self) -> int:
        return 2 * self.dim  # scale and shift

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        # mean, variance, normalise, affine ≈ 8 ops per element.
        return 8 * output.numel


@dataclass(frozen=True)
class TokenLinear(Layer):
    """Per-token linear projection: (d_in, S, 1) → (d_out, S, 1)."""

    in_features: int = 0
    out_features: int = 0
    bias: bool = True

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial or anywhere(shape.width != 1):
            raise ValueError("TokenLinear requires a (d, S, 1) token tensor")
        if anywhere(shape.channels != self.in_features):
            raise ValueError(
                f"TokenLinear expects {self.in_features} features, "
                f"got {shape.channels}"
            )
        return TensorShape(self.out_features, shape.height, 1)

    def param_count(self) -> int:
        return self.in_features * self.out_features + (
            self.out_features if self.bias else 0
        )

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        seq = output.height
        macs = seq * self.in_features * self.out_features
        return 2 * macs + (output.numel if self.bias else 0)


@dataclass(frozen=True)
class ScaledDotProductAttention(Layer):
    """Multi-head attention core: softmax(Q·Kᵀ/√d)·V.

    Consumes three (d, S, 1) tensors (queries, keys, values) and produces
    (d, S, 1).  FLOPs cover both S×S matmuls plus the softmax.
    """

    num_heads: int = 1

    ARITY = 3

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        q, k, v = inputs
        if q != k or q != v:
            raise ValueError(
                f"attention inputs must share a shape, got {q}, {k}, {v}"
            )
        if not q.is_spatial or anywhere(q.width != 1):
            raise ValueError("attention requires (d, S, 1) token tensors")
        if q.channels % self.num_heads:
            raise ValueError(
                f"dim {q.channels} not divisible by {self.num_heads} heads"
            )
        return q

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        dim, seq = output.channels, output.height
        scores = 2 * seq * seq * dim       # Q · Kᵀ over all heads
        softmax = 5 * seq * seq * self.num_heads
        weighted = 2 * seq * seq * dim     # A · V
        return scores + softmax + weighted


@dataclass(frozen=True)
class SelectToken(Layer):
    """Extract one token (e.g. the class token) as a flat vector."""

    index: int = 0

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial or anywhere(shape.width != 1):
            raise ValueError("SelectToken requires a (d, S, 1) token tensor")
        if self.index < 0 or anywhere(shape.height <= self.index):
            raise ValueError(
                f"token index {self.index} out of range for S={shape.height}"
            )
        return TensorShape(shape.channels)
