"""Vision Transformers (Dosovitskiy et al.) — the paper's future-work case.

ViT-Ti/S/B with 16px patches, built on the transformer layers of
:mod:`repro.graph.transformer_layers`.  The encoder block scope naming
(``encoder.<i>``) mirrors the zoo's ConvNet conventions so block-wise
prediction works for transformers too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.graph.transformer_layers import (
    ClassToken,
    LayerNorm,
    PositionalEmbedding,
    ScaledDotProductAttention,
    SelectToken,
    TokenLinear,
    TokensFromFeatureMap,
)
from repro.zoo.registry import register_model


@dataclass(frozen=True)
class _ViTConfig:
    patch: int
    dim: int
    depth: int
    heads: int
    mlp_ratio: int = 4


_CONFIGS = {
    "vit_tiny_16": _ViTConfig(16, 192, 12, 3),
    "vit_small_16": _ViTConfig(16, 384, 12, 6),
    "vit_base_16": _ViTConfig(16, 768, 12, 12),
}


def _encoder_block(b: GraphBuilder, x: str, cfg: _ViTConfig) -> str:
    dim = cfg.dim
    # Attention sub-block with pre-norm and residual.
    normed = b.add_layer(LayerNorm(dim), x)
    q = b.add_layer(TokenLinear(dim, dim), normed)
    k = b.add_layer(TokenLinear(dim, dim), normed)
    v = b.add_layer(TokenLinear(dim, dim), normed)
    attn = b.add_layer(ScaledDotProductAttention(cfg.heads), q, k, v)
    proj = b.add_layer(TokenLinear(dim, dim), attn)
    x = b.add(x, proj)
    # MLP sub-block with pre-norm and residual.
    normed = b.add_layer(LayerNorm(dim), x)
    h = b.add_layer(TokenLinear(dim, cfg.mlp_ratio * dim), normed)
    h = b.act(h, "gelu")
    h = b.add_layer(TokenLinear(cfg.mlp_ratio * dim, dim), h)
    return b.add(x, h)


def _build_vit(
    cfg: _ViTConfig, image_size: int, num_classes: int
) -> ComputeGraph:
    b = GraphBuilder()
    x = b.input(3, image_size, image_size)

    with b.block("stem"):
        x = b.conv(x, cfg.dim, kernel_size=cfg.patch, stride=cfg.patch)
        x = b.add_layer(TokensFromFeatureMap(), x)
        x = b.add_layer(ClassToken(cfg.dim), x)
        seq = (image_size // cfg.patch) ** 2 + 1
        x = b.add_layer(PositionalEmbedding(cfg.dim, seq), x)

    for i in range(cfg.depth):
        with b.block(f"encoder.{i}"):
            x = _encoder_block(b, x, cfg)

    with b.block("head"):
        x = b.add_layer(LayerNorm(cfg.dim), x)
        x = b.add_layer(SelectToken(0), x)
        x = b.linear(x, num_classes)

    return b.finish()


def build_vit_tiny(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_vit(_CONFIGS["vit_tiny_16"], image_size, num_classes)


def build_vit_small(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_vit(_CONFIGS["vit_small_16"], image_size, num_classes)


def build_vit_base(image_size: int = 224, num_classes: int = 1000) -> ComputeGraph:
    return _build_vit(_CONFIGS["vit_base_16"], image_size, num_classes)


# The patch embedding tiles the image: sizes must be a patch multiple.
register_model("vit_tiny_16", build_vit_tiny, min_image_size=32,
               family="transformer", display="ViT-Ti/16",
               image_multiple=_CONFIGS["vit_tiny_16"].patch)
register_model("vit_small_16", build_vit_small, min_image_size=32,
               family="transformer", display="ViT-S/16",
               image_multiple=_CONFIGS["vit_small_16"].patch)
register_model("vit_base_16", build_vit_base, min_image_size=32,
               family="transformer", display="ViT-B/16",
               image_multiple=_CONFIGS["vit_base_16"].patch)
