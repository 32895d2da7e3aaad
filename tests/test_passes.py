"""Graph transformation passes: framework contracts and fused equivalence.

The pass pipeline rewrites graphs that every downstream consumer —
profiling, measurement, verification, tracing — then trusts blindly, so
this suite pins the two properties that make that trust safe:

* **Semantic preservation**, exactly as ``verify_transform`` (IR008)
  defines it: parameter count, convolution FLOPs, and output shape are
  conserved for *every* zoo model, and the reference executor produces
  numerically equivalent outputs on a foldable graph.
* **Determinism**: pipelines are pure, idempotent, and content-fingerprinted;
  fused campaigns stay byte-identical across worker counts and resume.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.verify import Severity, verify_graph, verify_transform
from repro.benchdata import CampaignSpec, CampaignStore, run_campaign
from repro.cli import main
from repro.graph.graph import ComputeGraph, Node
from repro.graph.layers import (
    Activation,
    BatchNorm2d,
    Conv2d,
    Flatten,
    FusedConv2d,
    FusedLinear,
    Input,
    Linear,
)
from repro.graph.metrics import summarize_costs
from repro.graph.passes import (
    DEFAULT_INFERENCE_PASSES,
    FUSABLE_ACTIVATIONS,
    CanonicalizeShapes,
    EliminateDeadLayers,
    FoldBatchNorm,
    FuseConvActivation,
    PassPipeline,
    build_pipeline,
    default_inference_pipeline,
    resolve_transform,
)
from repro.graph.reference import ReferenceExecutor
from repro.graph.tensor import TensorShape
from repro.hardware.device import A100_80GB
from repro.hardware.executor import SimulatedExecutor
from repro.hardware.roofline import profile_graph, zoo_profile
from repro.zoo import available_models, build_model, get_entry


def bn_relu_graph() -> ComputeGraph:
    """input -> conv -> bn -> relu -> flatten -> fc; the canonical chain."""
    g = ComputeGraph("bnrelu")
    shape = TensorShape(3, 8, 8)
    g.add_node(Node("in", Input(shape), (), shape))
    g.add_node(Node("conv", Conv2d(3, 4, kernel_size=3, padding=1), ("in",),
                    TensorShape(4, 8, 8)))
    g.add_node(Node("bn", BatchNorm2d(4), ("conv",), TensorShape(4, 8, 8)))
    g.add_node(Node("relu", Activation("relu"), ("bn",),
                    TensorShape(4, 8, 8)))
    g.add_node(Node("flat", Flatten(), ("relu",), TensorShape(256)))
    g.add_node(Node("fc", Linear(256, 10), ("flat",), TensorShape(10)))
    return g


class TestFusedLayerAccounting:
    def test_fold_conserves_weights(self):
        conv = Conv2d(3, 4, kernel_size=3, padding=1)
        bn = BatchNorm2d(4)
        fused = FusedConv2d(3, 4, kernel_size=3, padding=1, bn_features=4)
        assert fused.param_count() == conv.param_count() + bn.param_count()

    def test_conv_flops_exclude_epilogue(self):
        inputs = [TensorShape(3, 8, 8)]
        out = TensorShape(4, 8, 8)
        conv = Conv2d(3, 4, kernel_size=3, padding=1)
        fused = FusedConv2d(3, 4, kernel_size=3, padding=1, bn_features=4,
                            activation="relu")
        assert fused.conv_flops(inputs, out) == conv.flops(inputs, out)
        # Total FLOPs keep the clamp arithmetic: one op per output element.
        assert fused.flops(inputs, out) == conv.flops(inputs, out) + out.numel

    def test_fused_linear_accounting(self):
        inputs = [TensorShape(16)]
        out = TensorShape(8)
        lin = Linear(16, 8)
        fused = FusedLinear(16, 8, bn_features=8, activation="relu")
        assert fused.param_count() == lin.param_count() + 16
        assert fused.flops(inputs, out) == lin.flops(inputs, out) + 8


class TestPipelineFramework:
    def test_fingerprint_stable_across_instances(self):
        assert (default_inference_pipeline().fingerprint()
                == default_inference_pipeline().fingerprint())

    def test_fingerprint_sensitive_to_pass_set_and_order(self):
        full = default_inference_pipeline()
        fold_only = build_pipeline(["fold-batchnorm"])
        reordered = build_pipeline(tuple(reversed(DEFAULT_INFERENCE_PASSES)))
        prints = {p.fingerprint() for p in (full, fold_only, reordered)}
        assert len(prints) == 3

    def test_unknown_pass_rejected_with_vocabulary(self):
        with pytest.raises(KeyError, match="fold-batchnorm"):
            build_pipeline(["no-such-pass"])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one pass"):
            PassPipeline(())

    def test_resolve_transform_vocabulary(self):
        assert resolve_transform("") is None
        assert resolve_transform("inference").name == "inference"
        custom = resolve_transform("fold-batchnorm, eliminate-dead-layers")
        assert [p.name for p in custom.passes] == [
            "fold-batchnorm", "eliminate-dead-layers",
        ]
        with pytest.raises(KeyError):
            resolve_transform("bogus")

    def test_inference_transform_is_one_shared_pipeline(self):
        assert resolve_transform("inference") is resolve_transform(
            "inference"
        )
        # A pass list builds a fresh pipeline each time, equal by content.
        spec = "fold-batchnorm,eliminate-dead-layers"
        first, again = resolve_transform(spec), resolve_transform(spec)
        assert again is not first
        assert again.fingerprint() == first.fingerprint()

    def test_provenance_threads_through_passes(self):
        result = default_inference_pipeline().run(bn_relu_graph())
        assert result.renames() == {"conv+bn+relu": ("conv", "bn", "relu")}
        fused = result.graph.node("conv+bn+relu").layer
        assert isinstance(fused, FusedConv2d)
        assert fused.bn_features == 4
        assert fused.activation == "relu"

    def test_pipeline_never_mutates_its_input(self):
        g = bn_relu_graph()
        names_before = [n.name for n in g]
        default_inference_pipeline().run(g)
        assert [n.name for n in g] == names_before
        assert isinstance(g.node("conv").layer, Conv2d)
        assert not isinstance(g.node("conv").layer, FusedConv2d)

    def test_canonicalize_normalises_names(self):
        g = ComputeGraph("messy")
        shape = TensorShape(3, 4, 4)
        g.add_node(Node(" in ", Input(shape), (), shape))
        g.add_node(Node("stage/conv", Conv2d(3, 3, 3, padding=1), (" in ",),
                        shape))
        out, result = CanonicalizeShapes().run(g)
        assert [n.name for n in out] == ["in", "stage.conv"]
        assert result.changed == 2

    def test_eliminate_dead_layers_drops_orphans(self):
        g = ComputeGraph("dead")
        shape = TensorShape(3, 4, 4)
        g.add_node(Node("in", Input(shape), (), shape))
        g.add_node(Node("orphan", Conv2d(3, 3, 3, padding=1), ("in",), shape))
        g.add_node(Node("relu", Activation("relu"), ("in",), shape))
        out, result = EliminateDeadLayers().run(g)
        assert result.removed == ("orphan",)
        assert "orphan" not in out
        assert verify_graph(out) == []

    def test_fold_skips_shared_producers(self):
        # conv feeds both a BN and a second consumer: folding would change
        # what the other consumer reads, so the pass must leave it alone.
        g = ComputeGraph("shared")
        shape = TensorShape(3, 4, 4)
        g.add_node(Node("in", Input(shape), (), shape))
        g.add_node(Node("conv", Conv2d(3, 3, 3, padding=1), ("in",), shape))
        g.add_node(Node("bn", BatchNorm2d(3), ("conv",), shape))
        g.add_node(Node("relu", Activation("relu"), ("conv",), shape))
        from repro.graph.layers import Add

        g.add_node(Node("add", Add(), ("bn", "relu"), shape))
        out, result = FoldBatchNorm().run(g)
        assert result.changed == 0
        assert [n.name for n in out] == [n.name for n in g]

    def test_expensive_activation_not_fused(self):
        assert "sigmoid" not in FUSABLE_ACTIVATIONS
        g = ComputeGraph("sig")
        shape = TensorShape(3, 4, 4)
        g.add_node(Node("in", Input(shape), (), shape))
        g.add_node(Node("conv", Conv2d(3, 3, 3, padding=1), ("in",), shape))
        g.add_node(Node("sig", Activation("sigmoid"), ("conv",), shape))
        _, result = FuseConvActivation().run(g)
        assert result.changed == 0


class TestReferenceEquivalence:
    def test_fused_graph_output_numerically_equivalent(self):
        g = bn_relu_graph()
        fused = default_inference_pipeline().run(g).graph
        x = np.random.default_rng(7).normal(size=(2, 3, 8, 8))
        raw_out = ReferenceExecutor(g, seed=11).run(x)
        fused_out = ReferenceExecutor(fused, seed=11).run(x)
        # BN at near-identity init contributes a 1/sqrt(1+eps) factor the
        # fused kernel bakes away; everything else must agree exactly.
        np.testing.assert_allclose(fused_out, raw_out, rtol=1e-3)


@pytest.mark.parametrize("name", available_models())
class TestZooFusedEquivalence:
    """The acceptance sweep: every zoo model, transformed and preserved."""

    def test_pipeline_preserves_and_converges(self, name):
        size = max(64, get_entry(name).min_image_size)
        graph = build_model(name, size)
        pipeline = default_inference_pipeline()
        result = pipeline.run(graph)
        fused = result.graph

        fused.validate()  # stored shapes survive the rewrite
        assert verify_transform(graph, fused) == []  # IR008 conservation

        raw_s, fused_s = summarize_costs(graph), summarize_costs(fused)
        assert fused_s.weights == raw_s.weights
        assert fused_s.flops <= raw_s.flops
        assert fused.output_node.output_shape == graph.output_node.output_shape
        assert not any(
            d.severity is Severity.ERROR for d in verify_graph(fused)
        )

        # Idempotent: a second application finds nothing left to rewrite.
        again = pipeline.run(fused)
        assert again.n_changed == 0
        # Deterministic: an independent run reproduces the graph exactly.
        rerun = pipeline.run(build_model(name, size)).graph
        assert [n.name for n in rerun] == [n.name for n in fused]
        assert [n.layer for n in rerun] == [n.layer for n in fused]


class TestProfileIntegration:
    def test_zoo_profile_caches_raw_and_fused_separately(self):
        raw = zoo_profile("resnet18", 64)
        fused = zoo_profile("resnet18", 64, default_inference_pipeline())
        assert raw is zoo_profile("resnet18", 64)
        assert fused is zoo_profile(
            "resnet18", 64, default_inference_pipeline()
        )
        assert raw is not fused
        assert len(fused.layer_names) < len(raw.layer_names)
        assert any("+" in n for n in fused.layer_names)

    def test_fused_inference_is_faster_on_bn_models(self):
        executor = SimulatedExecutor(A100_80GB, seed=0)
        graph = build_model("resnet18", 64)
        raw = executor.measure_inference(profile_graph(graph), batch=8)
        fused = executor.measure_inference(
            profile_graph(default_inference_pipeline().run(graph).graph),
            batch=8,
        )
        assert fused < raw

    def test_inference_mode_noise_is_paired(self):
        # The transform preserves the graph name, so raw and fused
        # measurements of the same point share their noise draw — the
        # difference between them is pure cost-model signal.
        executor = SimulatedExecutor(A100_80GB, seed=0)
        graph = build_model("alexnet", 64)
        raw = executor.measure_inference(profile_graph(graph), batch=4)
        fused = executor.measure_inference(
            profile_graph(default_inference_pipeline().run(graph).graph),
            batch=4,
        )
        # alexnet has no BatchNorm; fusion only absorbs activations, so the
        # two runs stay close but the fused one still sheds memory traffic.
        assert fused <= raw

    def test_graph_record_rewrites_on_a_miss(self, monkeypatch):
        # topology_records costs the topology it is given; graph_record
        # rewrites the raw topology itself on a miss and gets the same
        # records.
        from repro.caching import LRUCache
        from repro.hardware import roofline

        images = (64, 128)
        pipeline = default_inference_pipeline()
        topology = roofline.build_topology("resnet18", images)
        monkeypatch.setattr(
            roofline, "GRAPH_RECORD_CACHE", LRUCache(maxsize=64)
        )
        given = roofline.topology_records(
            "model", "resnet18", images, topology.rewritten(pipeline),
            pipeline,
        )
        raw = roofline.topology_records("model", "resnet18", images, topology)
        monkeypatch.setattr(
            roofline, "GRAPH_RECORD_CACHE", LRUCache(maxsize=64)
        )
        for image, record in zip(images, given):
            missed = roofline.graph_record(
                "model", "resnet18", image, pipeline, images=images
            )
            assert missed is not record
            assert (missed.summary, missed.features, missed.axis) == (
                record.summary, record.features, record.axis
            )
        # resnet18 sheds its BatchNorm layers when fused.
        assert all(
            f.summary.layers < r.summary.layers for f, r in zip(given, raw)
        )


FUSED_SPEC = CampaignSpec(
    scenario="inference",
    models=("alexnet", "resnet18", "mobilenet_v2"),
    device=A100_80GB,
    batch_sizes=(1, 8),
    image_sizes=(64,),
    seed=17,
    transform="inference",
)


class TestFusedCampaigns:
    def test_transform_string_validated_at_spec_construction(self):
        with pytest.raises(KeyError):
            dataclasses.replace(FUSED_SPEC, transform="bogus")

    def test_blocks_scenario_rejects_transform(self):
        with pytest.raises(ValueError, match="blocks"):
            CampaignSpec(
                scenario="blocks",
                models=(),
                device=A100_80GB,
                batch_sizes=(1,),
                image_sizes=(64,),
                transform="inference",
            )

    def test_untransformed_fingerprint_unchanged(self):
        # transform="" must not enter the manifest, so stores written
        # before the transform field existed keep resuming cleanly.
        plain = dataclasses.replace(FUSED_SPEC, transform="")
        assert "transform" not in plain.manifest()
        assert FUSED_SPEC.manifest()["transform"] == "inference"
        assert plain.fingerprint() != FUSED_SPEC.fingerprint()

    def test_fused_campaign_differs_from_raw(self):
        raw = run_campaign(dataclasses.replace(FUSED_SPEC, transform=""))
        fused = run_campaign(FUSED_SPEC)
        assert len(raw.dataset) == len(fused.dataset)
        # resnet18/mobilenet_v2 shed BatchNorm work; every fused point on
        # those models must come in at or under its raw counterpart.
        faster = sum(
            f.t_fwd < r.t_fwd
            for r, f in zip(raw.dataset, fused.dataset)
        )
        assert faster > 0

    def test_fused_campaign_parallel_matches_serial(self):
        serial = run_campaign(FUSED_SPEC, workers=1)
        parallel = run_campaign(FUSED_SPEC, workers=4)
        assert parallel.dataset.records == serial.dataset.records

    def test_fused_campaign_resume_matches_fresh(self, tmp_path):
        directory = tmp_path / "run"
        with CampaignStore.open(directory, FUSED_SPEC) as store:
            fresh = run_campaign(FUSED_SPEC, workers=1, store=store)
        log = directory / "records.jsonl"
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["complete"] = False
        manifest_path.write_text(json.dumps(manifest))
        with CampaignStore.open(directory, FUSED_SPEC, resume=True) as store:
            resumed = run_campaign(FUSED_SPEC, workers=1, store=store)
        assert resumed.dataset.records == fresh.dataset.records

    def test_fused_campaign_verifies_clean_in_strict_mode(self):
        result = run_campaign(FUSED_SPEC, verify="strict")
        assert result.stats.n_verify_errors == 0

    def test_each_raw_topology_is_rewritten_once(self, monkeypatch):
        # Verification rewrites each raw topology once and hands that one
        # graph to the fused verify half, to IR008 and to the records the
        # sweep measures; unverified, the sweep's first record lookup of a
        # model rewrites it once.  Both from cold caches.
        from repro.benchdata import engine
        from repro.caching import LRUCache
        from repro.hardware import roofline

        spec = dataclasses.replace(FUSED_SPEC, image_sizes=(64, 128))
        rewritten: list[str] = []
        run = PassPipeline.run

        def counting(pipeline, graph):
            rewritten.append(graph.name)
            return run(pipeline, graph)

        monkeypatch.setattr(PassPipeline, "run", counting)
        records = {}
        for verify in ("strict", "off"):
            monkeypatch.setattr(
                roofline, "GRAPH_RECORD_CACHE", LRUCache(maxsize=512)
            )
            monkeypatch.setattr(engine, "VERIFY_CACHE", LRUCache(maxsize=512))
            rewritten.clear()
            records[verify] = run_campaign(spec, verify=verify).dataset.records
            # One topology per model: its graph is named at the last image.
            assert sorted(rewritten) == sorted(
                f"{model}_128" for model in spec.models
            ), verify
        assert records["strict"] == records["off"]

    def test_a_cold_fused_campaign_caches_no_raw_record(self, monkeypatch):
        # The sweep measures only the fused records; verification costs
        # the raw half without leaving its records behind.
        from repro.benchdata import engine
        from repro.caching import LRUCache
        from repro.hardware import roofline

        spec = dataclasses.replace(FUSED_SPEC, image_sizes=(64, 128))
        cache = LRUCache(maxsize=512)
        monkeypatch.setattr(roofline, "GRAPH_RECORD_CACHE", cache)
        monkeypatch.setattr(engine, "VERIFY_CACHE", LRUCache(maxsize=512))
        run_campaign(spec, verify="strict")
        fused = resolve_transform(spec.transform).fingerprint()
        graphs = [(name, image)
                  for name in spec.models for image in spec.image_sizes]
        assert len(cache) == len(graphs)
        for name, image in graphs:
            assert ("model", name, image, fused) in cache
            assert ("model", name, image, "") not in cache


class TestTraceFusion:
    def test_fused_trace_emits_fused_span_names(self):
        from repro.trace.run import trace_model

        tracer = trace_model("resnet18", A100_80GB, image_size=64, fuse=True)
        names = {
            span.name for root in tracer.roots for span in root.walk()
        }
        assert any("+batchnorm" in n for n in names)

    def test_raw_trace_keeps_separate_spans(self):
        from repro.trace.run import trace_model

        tracer = trace_model("resnet18", A100_80GB, image_size=64)
        names = {
            span.name for root in tracer.roots for span in root.walk()
        }
        assert not any("+" in n for n in names)


class TestTransformCLI:
    def test_transform_reports_passes_and_metrics(self, capsys):
        rc = main(["transform", "resnet18"])
        assert rc == 0
        out = capsys.readouterr().out
        for pass_name in DEFAULT_INFERENCE_PASSES:
            assert pass_name in out
        assert "weights (W)" in out

    def test_transform_diff_shows_layer_mapping(self, capsys):
        rc = main(["transform", "resnet18", "--diff"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conv2d_0 + batchnorm2d_0 + activation_0 "
        assert "-> conv2d_0+batchnorm2d_0+activation_0" in out

    def test_transform_unknown_model_exits_two(self, capsys):
        rc = main(["transform", "no-such-net"])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err

    def test_transform_unknown_pass_exits_two(self, capsys):
        rc = main(["transform", "resnet18", "--passes", "bogus"])
        assert rc == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_transform_custom_pass_list(self, capsys):
        rc = main(["transform", "resnet18", "--passes", "fold-batchnorm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fold-batchnorm" in out
        assert "fuse-conv-activation" not in out

    def test_campaign_fuse_flag(self, tmp_path, capsys):
        out_path = tmp_path / "fused.json"
        rc = main([
            "campaign", "--models", "alexnet", "--fuse",
            "-o", str(out_path),
        ])
        assert rc == 0
        assert out_path.exists()

    def test_verify_fuse_flag_all_clean(self, capsys):
        rc = main(["verify", "resnet18", "mobilenet_v2", "--fuse",
                   "--quiet"])
        assert rc == 0
        assert "0 errors" in capsys.readouterr().out
