"""Extensions: transformer layers, the ViT zoo, strong scaling,
parameter-server comparison, refinement, and gradient accumulation."""

import numpy as np
import pytest

from repro.core.epoch import accumulated_step_time
from repro.core.forward import ForwardModel
from repro.core.loo import leave_one_out
from repro.core.refinement import compare_refinement, model_specific_fit
from repro.distributed.interconnect import IB_HDR200_X4, NVLINK3
from repro.distributed.paramserver import (
    ParameterServerSpec,
    allreduce_vs_paramserver,
    crossover_worker_count,
    parameter_server_sync_time,
)
from repro.extensions import transformer_features, vit_inference_campaign
from repro.extensions.transformer import (
    PRIMARY_COMPUTE_TYPES,
    WORKLOAD_GROUPS,
    workload_decomposition,
)
from repro.graph.builder import GraphBuilder
from repro.graph.reference import ReferenceExecutor
from repro.graph.tensor import TensorShape
from repro.graph.transformer_layers import (
    ClassToken,
    LayerNorm,
    PositionalEmbedding,
    ScaledDotProductAttention,
    SelectToken,
    TokenLinear,
    TokensFromFeatureMap,
)
from repro.zoo import build_model

S = TensorShape


class TestTransformerLayers:
    def test_tokens_from_feature_map(self):
        out = TokensFromFeatureMap().infer_shape([S(192, 14, 14)])
        assert out == S(192, 196, 1)

    def test_class_token_extends_sequence(self):
        layer = ClassToken(192)
        assert layer.infer_shape([S(192, 196, 1)]) == S(192, 197, 1)
        assert layer.param_count() == 192

    def test_positional_embedding(self):
        layer = PositionalEmbedding(192, 197)
        assert layer.infer_shape([S(192, 197, 1)]) == S(192, 197, 1)
        assert layer.param_count() == 192 * 197

    def test_positional_embedding_shape_mismatch(self):
        with pytest.raises(ValueError):
            PositionalEmbedding(192, 197).infer_shape([S(192, 50, 1)])

    def test_layernorm(self):
        layer = LayerNorm(384)
        assert layer.infer_shape([S(384, 10, 1)]) == S(384, 10, 1)
        assert layer.param_count() == 768

    def test_token_linear(self):
        layer = TokenLinear(384, 1536)
        assert layer.infer_shape([S(384, 197, 1)]) == S(1536, 197, 1)
        assert layer.param_count() == 384 * 1536 + 1536

    def test_token_linear_flops_scale_with_sequence(self):
        layer = TokenLinear(64, 64, bias=False)
        short = layer.flops([S(64, 10, 1)], S(64, 10, 1))
        long = layer.flops([S(64, 20, 1)], S(64, 20, 1))
        assert long == 2 * short

    def test_token_linear_rejects_flat(self):
        with pytest.raises(ValueError):
            TokenLinear(64, 64).infer_shape([S(64)])

    def test_attention_shape_and_arity(self):
        attn = ScaledDotProductAttention(num_heads=4)
        shape = S(64, 50, 1)
        assert attn.infer_shape([shape, shape, shape]) == shape
        with pytest.raises(ValueError):
            attn.infer_shape([shape, shape])

    def test_attention_flops_quadratic_in_sequence(self):
        attn = ScaledDotProductAttention(num_heads=1)
        f1 = attn.flops([S(64, 10, 1)] * 3, S(64, 10, 1))
        f2 = attn.flops([S(64, 20, 1)] * 3, S(64, 20, 1))
        assert 3.8 < f2 / f1 < 4.2

    def test_attention_head_divisibility(self):
        with pytest.raises(ValueError, match="heads"):
            ScaledDotProductAttention(num_heads=5).infer_shape(
                [S(64, 10, 1)] * 3
            )

    def test_select_token(self):
        assert SelectToken(0).infer_shape([S(192, 197, 1)]) == S(192)
        with pytest.raises(ValueError):
            SelectToken(500).infer_shape([S(192, 197, 1)])


class TestViTZoo:
    def test_vit_base_params_match_torchvision(self):
        g = build_model("vit_base_16", 224)
        assert g.parameter_count() == 86_567_656

    def test_vit_small_params(self):
        g = build_model("vit_small_16", 224)
        assert abs(g.parameter_count() - 22_050_664) < 10_000

    def test_patch_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            build_model("vit_base_16", 100)

    def test_encoder_blocks_extractable(self):
        g = build_model("vit_tiny_16", 64)
        sub = g.block_subgraph("encoder.3")
        sub.validate()
        assert len(sub) > 10

    def test_vit_reference_execution(self):
        g = build_model("vit_tiny_16", 32, num_classes=5)
        out = ReferenceExecutor(g, seed=0).run(
            np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        )
        assert out.shape == (2, 5)
        assert np.all(np.isfinite(out))

    def test_attention_softmax_rows_normalised(self):
        # Build a minimal attention graph and check the executor's output
        # is a convex combination of V rows when Q=K=V inputs are shared.
        b = GraphBuilder("attn")
        x = b.input(8, 6, 1)
        q = b.add_layer(TokenLinear(8, 8, bias=False), x)
        out = b.add_layer(ScaledDotProductAttention(2), q, q, q)
        g = b.finish()
        ex = ReferenceExecutor(g, seed=1)
        data = np.random.default_rng(2).normal(size=(1, 8, 6, 1))
        result = ex.run(data)
        assert result.shape == (1, 8, 6, 1)
        # Attention output magnitude is bounded by the max |v| per head-dim.
        q_out = ex._apply("tokenlinear_0", g.node(q).layer, [data])
        assert np.all(
            np.abs(result) <= np.abs(q_out).max() + 1e-9
        )


def _reference_transformer_features(graph):
    """Transformer-aware metric vector by a direct walk of the graph."""
    from repro.benchdata.records import ConvNetFeatures
    from repro.graph.metrics import graph_costs

    costs = graph_costs(graph)
    primary = [c for c in costs if c.layer_type in PRIMARY_COMPUTE_TYPES]
    return ConvNetFeatures(
        flops=float(sum(c.flops for c in costs)),
        inputs=float(sum(c.input_elems for c in primary)),
        outputs=float(sum(c.output_elems for c in primary)),
        weights=float(sum(c.params for c in costs)),
        layers=sum(1 for c in costs if c.params > 0),
    )


def _reference_workload_decomposition(graph):
    """FLOP shares per layer-type group by a direct walk of the graph."""
    from repro.graph.metrics import graph_costs

    groups = {
        "Conv2d": "conv",
        "TokenLinear": "token_linear",
        "ScaledDotProductAttention": "attention",
        "Linear": "linear",
    }
    costs = graph_costs(graph)
    shares = {group: 0.0 for group in WORKLOAD_GROUPS}
    total = float(sum(c.flops for c in costs))
    for c in costs:
        shares[groups.get(c.layer_type, "other")] += c.flops
    return {group: shares[group] / total for group in WORKLOAD_GROUPS}


class TestTransformerFeatures:
    def test_features_positive(self):
        from repro.hardware.roofline import profile_graph

        g = build_model("vit_small_16", 128)
        f = transformer_features(profile_graph(g))
        assert f.flops > 0 and f.inputs > 0 and f.outputs > 0
        assert f.weights == g.parameter_count()
        assert f.layers == g.parametric_layer_count()

    def test_transformer_io_far_exceeds_conv_io(self):
        from repro.benchdata.records import ConvNetFeatures
        from repro.hardware.roofline import profile_graph

        g = build_model("vit_small_16", 128)
        profile = profile_graph(g)
        conv_style = ConvNetFeatures.from_profile(profile)
        trans = transformer_features(profile)
        # The conv-only metric misses all the token projections.
        assert trans.inputs > 10 * conv_style.inputs

    def test_profile_features_equal_a_graph_walk_for_every_zoo_model(self):
        from repro.hardware.roofline import zoo_profile
        from repro.zoo import available_models, get_entry

        checked = 0
        for name in available_models():
            for image in (64, 128, 224):
                if image < get_entry(name).min_image_size:
                    continue
                graph = build_model(name, image)
                profile = zoo_profile(name, image)
                assert transformer_features(profile) == (
                    _reference_transformer_features(graph)
                ), (name, image)
                assert workload_decomposition(profile) == (
                    _reference_workload_decomposition(graph)
                ), (name, image)
                checked += 1
        assert checked == 98

    def test_vit_campaign_and_fit(self):
        data = vit_inference_campaign(seed=51)
        assert data.models() == [
            "vit_tiny_16", "vit_small_16", "vit_base_16",
        ]
        result = leave_one_out(
            data, lambda: ForwardModel(), lambda r: r.t_fwd
        )
        assert result.pooled.r2 > 0.9
        assert result.pooled.mape < 0.3

    def test_transformer_features_beat_conv_features(self):
        from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
        from repro.hardware.roofline import zoo_profile

        data = vit_inference_campaign(seed=51)
        conv_data = Dataset(
            [
                TimingRecord(
                    **{
                        **r.to_dict(),
                        "features": ConvNetFeatures.from_profile(
                            zoo_profile(r.model, r.image_size)
                        ),
                    }
                )
                for r in data
            ]
        )
        trans = leave_one_out(
            data, lambda: ForwardModel(), lambda r: r.t_fwd
        ).pooled
        conv = leave_one_out(
            conv_data, lambda: ForwardModel(), lambda r: r.t_fwd
        ).pooled
        assert trans.mape < conv.mape


class TestParameterServer:
    def test_single_worker_free(self):
        server = ParameterServerSpec(IB_HDR200_X4)
        assert parameter_server_sync_time(1e8, 1, server) == 0.0

    def test_linear_in_workers(self):
        server = ParameterServerSpec(IB_HDR200_X4)
        t4 = parameter_server_sync_time(1e8, 4, server)
        t8 = parameter_server_sync_time(1e8, 8, server)
        assert t8 / t4 == pytest.approx(2.0, rel=0.01)

    def test_sharding_divides_cost(self):
        t1 = parameter_server_sync_time(
            1e8, 8, ParameterServerSpec(IB_HDR200_X4, shards=1)
        )
        t4 = parameter_server_sync_time(
            1e8, 8, ParameterServerSpec(IB_HDR200_X4, shards=4)
        )
        assert t4 < t1 / 3

    def test_ring_wins_at_scale(self):
        # The paper's Section 2 claim: all-reduce scales better.
        costs = allreduce_vs_paramserver(1e8, 32, IB_HDR200_X4)
        assert costs["ring_all_reduce"] < costs["parameter_server"]

    def test_crossover_exists_for_unsharded_server(self):
        n = crossover_worker_count(1e8, NVLINK3)
        assert n is not None and n <= 8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ParameterServerSpec(IB_HDR200_X4, shards=0)
        with pytest.raises(ValueError):
            parameter_server_sync_time(
                1e8, 0, ParameterServerSpec(IB_HDR200_X4)
            )


class TestRefinement:
    def test_model_specific_fit_improves_own_model(self, small_inference_data):
        comparison = compare_refinement(
            small_inference_data,
            "mobilenet_v2",
            lambda: ForwardModel(),
            lambda r: r.t_fwd,
            seed=3,
        )
        assert comparison.refined.mape < comparison.generic.mape
        assert comparison.mape_improvement > 0

    def test_model_specific_fit_returns_fitted(self, small_inference_data):
        predictor = model_specific_fit(
            small_inference_data, "resnet50", lambda: ForwardModel()
        )
        metrics = predictor.evaluate(
            small_inference_data.for_model("resnet50")
        )
        assert metrics.mape < 0.15

    def test_unknown_model_rejected(self, small_inference_data):
        with pytest.raises(ValueError, match="no records"):
            model_specific_fit(
                small_inference_data, "nonexistent", lambda: ForwardModel()
            )

    def test_bad_holdout_fraction(self, small_inference_data):
        with pytest.raises(ValueError):
            compare_refinement(
                small_inference_data, "resnet50", lambda: ForwardModel(),
                lambda r: r.t_fwd, holdout_fraction=1.5,
            )


class TestGradientAccumulation:
    def test_accumulated_step(self):
        assert accumulated_step_time(0.1, 0.02, 4) == pytest.approx(0.42)

    def test_single_step_degenerate(self):
        assert accumulated_step_time(0.1, 0.02, 1) == pytest.approx(0.12)

    def test_amortises_update_cost(self):
        # Per-sample cost falls as the update is amortised.
        per_sample_1 = accumulated_step_time(0.1, 0.05, 1) / 1
        per_sample_8 = accumulated_step_time(0.1, 0.05, 8) / 8
        assert per_sample_8 < per_sample_1

    def test_validation(self):
        with pytest.raises(ValueError):
            accumulated_step_time(0.1, 0.02, 0)
        with pytest.raises(ValueError):
            accumulated_step_time(-0.1, 0.02, 1)
