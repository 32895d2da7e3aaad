"""Graph IR verifier: zoo cleanliness, mutation rules, campaign gating.

The mutation tests are the rule catalogue's contract: each one corrupts a
well-formed graph in exactly one way and asserts that exactly the expected
rule id fires.  A rule that stops firing on its mutation has silently
stopped protecting the metric pipeline.
"""

import dataclasses
import json

import pytest

from repro.analysis.verify import (
    GraphVerificationError,
    Severity,
    verify_graph,
    verify_model,
    verify_transform,
)
from repro.benchdata.engine import CampaignSpec, run_campaign
from repro.cli import main
from repro.graph.graph import ComputeGraph, Node
from repro.graph.layers import (
    Activation,
    Add,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Input,
    Linear,
)
from repro.graph.metrics import summarize_costs
from repro.graph.tensor import TensorShape
from repro.zoo import available_models, registry


def small_graph() -> ComputeGraph:
    """input -> conv -> relu -> flatten -> linear; verifiably clean."""
    g = ComputeGraph("tiny")
    shape = TensorShape(3, 8, 8)
    g.add_node(Node("in", Input(shape), (), shape))
    conv = Conv2d(3, 4, kernel_size=3, padding=1)
    g.add_node(Node("conv", conv, ("in",), TensorShape(4, 8, 8)))
    g.add_node(Node("relu", Activation("relu"), ("conv",),
                    TensorShape(4, 8, 8)))
    g.add_node(Node("flat", Flatten(), ("relu",), TensorShape(256)))
    g.add_node(Node("fc", Linear(256, 10), ("flat",), TensorShape(10)))
    return g


def rules_fired(diags, severity=None):
    return {
        d.rule
        for d in diags
        if severity is None or d.severity is severity
    }


class TestZooIsClean:
    @pytest.mark.parametrize("name", available_models())
    def test_no_error_diagnostics(self, name):
        diags = verify_model(name)
        errors = [d for d in diags if d.severity is Severity.ERROR]
        assert errors == [], (
            f"{name} fails IR verification: "
            + "; ".join(d.render() for d in errors)
        )

    def test_small_graph_fully_clean(self):
        assert verify_graph(small_graph()) == []

    def test_resnet_stride_shortcuts_do_not_warn(self):
        # torchvision's stride-2 1x1 downsample shortcuts skip pixels by
        # design — they resample the identity branch to the residual
        # branch's grid.  The verifier must recognise the pattern and stay
        # silent rather than WARN on every ResNet-family model.
        diags = verify_model("resnet18")
        assert rules_fired(diags, Severity.WARN) == set()
        assert rules_fired(diags, Severity.ERROR) == set()
        # The only finding is the IR007 fusion advisory (INFO).
        assert rules_fired(diags, Severity.INFO) == {"IR007"}


class TestMutationsFireExactRules:
    def test_corrupted_stored_shape_fires_ir001(self):
        g = small_graph()
        node = g.node("conv")
        g._nodes["conv"] = dataclasses.replace(
            node, output_shape=TensorShape(4, 9, 8)
        )
        assert rules_fired(verify_graph(g), Severity.ERROR) == {"IR001"}

    def test_channel_mismatch_fires_ir001(self):
        g = small_graph()
        node = g.node("conv")
        g._nodes["conv"] = dataclasses.replace(
            node, layer=Conv2d(5, 4, kernel_size=3, padding=1)
        )
        diags = verify_graph(g)
        assert "IR001" in rules_fired(diags, Severity.ERROR)
        assert any("shape inference failed" in d.message for d in diags)

    def test_dropped_edge_fires_ir002_dead_layer(self):
        # Rewire relu to read the input directly: conv still costs FLOPs
        # and weights but no longer feeds anything.
        g = ComputeGraph("dead")
        shape = TensorShape(3, 8, 8)
        g.add_node(Node("in", Input(shape), (), shape))
        g.add_node(Node("conv", Conv2d(3, 3, 3, padding=1), ("in",),
                        TensorShape(3, 8, 8)))
        g.add_node(Node("relu", Activation("relu"), ("in",), shape))
        diags = verify_graph(g)
        assert rules_fired(diags, Severity.ERROR) == {"IR002"}
        assert any("dead layer" in d.message and "conv" in d.location
                   for d in diags)

    def test_dangling_input_is_warn(self):
        g = small_graph()
        shape = TensorShape(3, 4, 4)
        g.add_node(Node("in2", Input(shape), (), shape))
        g._order.remove("in2")
        g._order.insert(0, "in2")  # keep the real sink last
        diags = verify_graph(g)
        assert rules_fired(diags, Severity.WARN) == {"IR002"}
        assert rules_fired(diags, Severity.ERROR) == set()

    def test_forward_edge_fires_ir003_not_ir001(self):
        g = small_graph()
        i, j = g._order.index("conv"), g._order.index("relu")
        g._order[i], g._order[j] = g._order[j], g._order[i]
        fired = rules_fired(verify_graph(g), Severity.ERROR)
        assert "IR003" in fired
        # The broken edge must not cascade into a bogus shape diagnostic.
        assert "IR001" not in fired

    def test_unknown_input_fires_ir003(self):
        g = small_graph()
        node = g.node("fc")
        g._nodes["fc"] = dataclasses.replace(node, inputs=("ghost",))
        assert "IR003" in rules_fired(verify_graph(g), Severity.ERROR)

    def test_doubled_flops_in_summary_fires_ir004(self):
        g = small_graph()
        good = summarize_costs(g)
        doubled = dataclasses.replace(good, flops=2 * good.flops)
        diags = verify_graph(g, summary=doubled)
        assert rules_fired(diags, Severity.ERROR) == {"IR004"}
        assert any("FLOPs" in d.message for d in diags)

    def test_clean_summary_passes_ir004(self):
        g = small_graph()
        assert verify_graph(g, summary=summarize_costs(g)) == []

    def test_bad_dropout_p_fires_ir005(self):
        g = small_graph()
        node = g.node("relu")
        g._nodes["relu"] = dataclasses.replace(node, layer=Dropout(p=1.5))
        assert rules_fired(verify_graph(g), Severity.ERROR) == {"IR005"}

    def test_stride_exceeding_kernel_warns_ir005(self):
        g = ComputeGraph("stride")
        shape = TensorShape(3, 9, 9)
        g.add_node(Node("in", Input(shape), (), shape))
        layer = Conv2d(3, 4, kernel_size=1, stride=3)
        g.add_node(Node("conv", layer, ("in",), TensorShape(4, 3, 3)))
        diags = verify_graph(g)
        assert rules_fired(diags, Severity.WARN) == {"IR005"}
        assert rules_fired(diags, Severity.ERROR) == set()

    def test_broken_at_batch_fires_ir006(self):
        g = small_graph()

        @dataclasses.dataclass(frozen=True)
        class StuckSummary(type(summarize_costs(g))):
            def at_batch(self, batch):
                return self  # forgets to scale anything

        good = summarize_costs(g)
        stuck = StuckSummary(**dataclasses.asdict(good))
        assert rules_fired(verify_graph(g, summary=stuck),
                           Severity.ERROR) == {"IR006"}

    def test_ignore_suppresses_rule(self):
        g = small_graph()
        node = g.node("relu")
        g._nodes["relu"] = dataclasses.replace(node, layer=Dropout(p=1.5))
        assert verify_graph(g, ignore=["IR005"]) == []


class TestSharedWork:
    """verify_graph summarises a graph once and reuses a supplied profile."""

    def test_summarize_costs_runs_once(self, monkeypatch):
        from repro.analysis.verify import rules

        calls = []

        def counting(graph):
            calls.append(graph.name)
            return summarize_costs(graph)

        monkeypatch.setattr(rules, "summarize_costs", counting)
        verify_graph(small_graph())
        assert calls == ["tiny"]

    def test_supplied_summary_replaces_summarize_costs(self, monkeypatch):
        from repro.analysis.verify import rules

        g = small_graph()
        good = summarize_costs(g)

        def refuse(graph):
            raise AssertionError("summarised despite a supplied summary")

        monkeypatch.setattr(rules, "summarize_costs", refuse)
        assert verify_graph(g, summary=good) == []
        doubled = dataclasses.replace(good, flops=2 * good.flops)
        ir004 = [
            d for d in verify_graph(g, summary=doubled) if d.rule == "IR004"
        ]
        assert len(ir004) == 1
        assert "FLOPs (F) from supplied summary" in ir004[0].message

    def test_ir004_still_checks_the_production_summary(self, monkeypatch):
        from repro.analysis.verify import rules

        monkeypatch.setattr(
            rules,
            "summarize_costs",
            lambda g: dataclasses.replace(
                summarize_costs(g), flops=2 * summarize_costs(g).flops
            ),
        )
        diags = verify_graph(small_graph())
        ir004 = [d for d in diags if d.rule == "IR004"]
        assert len(ir004) == 1
        assert "FLOPs (F) from summarize_costs" in ir004[0].message

    def test_ir009_uses_the_supplied_profile(self, monkeypatch):
        from repro.hardware import roofline
        from repro.zoo import build_model

        big = roofline.profile_graph(build_model("vgg16", 224))

        def refuse(*args, **kwargs):
            raise AssertionError("IR009 re-profiled a supplied profile")

        monkeypatch.setattr(roofline, "profile_graph", refuse)
        # The small graph fits every edge preset on its own; the supplied
        # (vgg16) profile is what IR009 judges.
        diags = verify_graph(small_graph(), edge_batch=2048, profile=big)
        assert [d.rule for d in diags if d.rule == "IR009"] == ["IR009"]


class TestVerifyModelEntryPoint:
    def test_unknown_model_reports_diagnostic_not_exception(self):
        diags = verify_model("no-such-net")
        assert rules_fired(diags, Severity.ERROR) == {"IR001"}
        assert "construction failed" in diags[0].message

    def test_image_size_clamped_to_model_minimum(self):
        # inception_v3 needs >= 75 px; a smaller request must not raise.
        diags = verify_model("inception_v3", image_size=32)
        assert not any(d.severity is Severity.ERROR for d in diags)


def bn_graph() -> ComputeGraph:
    """input -> conv -> bn -> relu -> flatten -> linear; foldable chain."""
    g = ComputeGraph("bnnet")
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


def downsample_graph() -> ComputeGraph:
    """A residual stage with a stride-2 1x1 downsample shortcut."""
    g = ComputeGraph("downsample")
    shape = TensorShape(3, 8, 8)
    out = TensorShape(4, 4, 4)
    g.add_node(Node("in", Input(shape), (), shape))
    g.add_node(Node("main", Conv2d(3, 4, kernel_size=3, stride=2, padding=1),
                    ("in",), out))
    g.add_node(Node("short", Conv2d(3, 4, kernel_size=1, stride=2), ("in",),
                    out))
    g.add_node(Node("short_bn", BatchNorm2d(4), ("short",), out))
    g.add_node(Node("add", Add(), ("main", "short_bn"), out))
    return g


class TestUnfusedBatchNormAdvisory:
    def test_ir007_fires_once_per_graph(self):
        diags = verify_graph(bn_graph())
        ir007 = [d for d in diags if d.rule == "IR007"]
        assert len(ir007) == 1
        assert ir007[0].severity is Severity.INFO
        assert "1 foldable BatchNorm" in ir007[0].message

    def test_ir007_counts_all_batchnorms(self):
        diags = verify_graph(downsample_graph())
        ir007 = [d for d in diags if d.rule == "IR007"]
        assert len(ir007) == 1
        assert "1 foldable BatchNorm" in ir007[0].message

    def test_ir007_silent_without_batchnorm(self):
        assert not any(
            d.rule == "IR007" for d in verify_graph(small_graph())
        )

    def test_ir007_silent_after_fusion(self):
        from repro.graph.passes import default_inference_pipeline

        fused = default_inference_pipeline().run(bn_graph()).graph
        assert not any(d.rule == "IR007" for d in verify_graph(fused))

    def test_ir007_respects_ignore(self):
        assert verify_graph(bn_graph(), ignore=["IR007"]) == []

    def test_ir007_ignores_unfoldable_post_concat_norms(self):
        # DenseNet's norms follow concats (pre-activation ordering): no
        # producing conv exists, real runtimes keep them standalone, and
        # the advisory must not nag about them after the pipeline ran.
        diags = verify_model("densenet121", fuse=True)
        assert not any(d.rule == "IR007" for d in diags)


class TestTransformPreservation:
    def test_fold_preserves_semantics(self):
        from repro.graph.passes import default_inference_pipeline

        g = bn_graph()
        fused = default_inference_pipeline().run(g).graph
        assert verify_transform(g, fused) == []

    def test_parameter_loss_fires_ir008(self):
        # Dropping the BN without re-accounting its 2C parameters on the
        # fused layer must be caught: compare the raw graph against a fake
        # "transform" that simply deletes the BN node.
        g = bn_graph()
        broken = ComputeGraph(g.name)
        for node in g:
            if node.name == "bn":
                continue
            inputs = tuple("conv" if p == "bn" else p for p in node.inputs)
            broken.add_node(dataclasses.replace(node, inputs=inputs))
        diags = verify_transform(g, broken)
        assert rules_fired(diags, Severity.ERROR) == {"IR008"}
        assert any("parameter" in d.message for d in diags)

    def test_output_shape_change_fires_ir008(self):
        g = small_graph()
        changed = ComputeGraph(g.name)
        for node in g:
            if node.name == "fc":
                changed.add_node(dataclasses.replace(
                    node, layer=Linear(256, 7), output_shape=TensorShape(7)
                ))
            else:
                changed.add_node(node)
        diags = verify_transform(g, changed)
        assert any(
            d.rule == "IR008" and "output shape" in d.message for d in diags
        )

    def test_verify_model_fuse_clean_on_resnet(self):
        diags = verify_model("resnet18", fuse=True)
        assert not any(d.severity is Severity.ERROR for d in diags)
        assert not any(d.rule == "IR007" for d in diags)


class TestDownsampleShortcutRecognition:
    def test_downsample_shortcut_does_not_warn(self):
        diags = verify_graph(downsample_graph())
        assert rules_fired(diags, Severity.WARN) == set()
        assert rules_fired(diags, Severity.ERROR) == set()

    def test_fused_downsample_shortcut_does_not_warn(self):
        # The recognition must survive the fusion pipeline: the shortcut
        # conv+bn becomes one FusedConv2d feeding the add directly.
        from repro.graph.passes import default_inference_pipeline

        fused = default_inference_pipeline().run(downsample_graph()).graph
        diags = verify_graph(fused)
        assert rules_fired(diags, Severity.WARN) == set()

    def test_non_shortcut_pixel_skipping_still_warns(self):
        # A stride-2 1x1 conv feeding anything but a residual add keeps
        # its IR005 WARN — the suppression is for the shortcut idiom only.
        g = ComputeGraph("plain")
        shape = TensorShape(3, 8, 8)
        g.add_node(Node("in", Input(shape), (), shape))
        g.add_node(Node("conv", Conv2d(3, 4, kernel_size=1, stride=2),
                        ("in",), TensorShape(4, 4, 4)))
        g.add_node(Node("relu", Activation("relu"), ("conv",),
                        TensorShape(4, 4, 4)))
        diags = verify_graph(g)
        assert rules_fired(diags, Severity.WARN) == {"IR005"}


def _register_broken_model(monkeypatch, name="brokennet-test"):
    """Register a zoo model whose graph carries a corrupted stored shape."""

    def builder(image_size: int, num_classes: int = 1000) -> ComputeGraph:
        g = ComputeGraph(name)
        shape = TensorShape(3, image_size, image_size)
        g.add_node(Node("in", Input(shape), (), shape))
        g.add_node(
            Node(
                "conv",
                Conv2d(3, 8, kernel_size=3, padding=1),
                ("in",),
                # Lies about its height: IR001 ERROR.
                TensorShape(8, image_size + 1, image_size),
            )
        )
        return g

    entry = registry.ModelEntry(name, builder, 8, "test", name)
    monkeypatch.setitem(registry._REGISTRY, name, entry)
    return name


class TestCampaignVerification:
    def _spec(self, model):
        from repro.hardware.device import A100_80GB

        return CampaignSpec(
            scenario="inference",
            models=(model,),
            device=A100_80GB,
            batch_sizes=(1, 2),
            image_sizes=(32,),
        )

    def test_strict_refuses_broken_graph(self, monkeypatch):
        name = _register_broken_model(monkeypatch, "brokennet-strict")
        with pytest.raises(GraphVerificationError, match="IR001"):
            run_campaign(self._spec(name), verify="strict")

    def test_strict_refuses_uncostable_graph(self, monkeypatch):
        # Verification profiles the graph it verifies; a graph that cannot
        # be costed must still end in diagnostics, not a bare KeyError.
        def builder(image_size: int, num_classes: int = 1000):
            g = small_graph()
            node = g.node("fc")
            g._nodes["fc"] = dataclasses.replace(node, inputs=("ghost",))
            return g

        name = "ghostnet-strict"
        monkeypatch.setitem(
            registry._REGISTRY, name,
            registry.ModelEntry(name, builder, 8, "test", name),
        )
        with pytest.raises(GraphVerificationError, match="IR003"):
            run_campaign(self._spec(name), verify="strict")

    def test_warn_measures_but_counts_errors(self, monkeypatch):
        name = _register_broken_model(monkeypatch, "brokennet-warn")
        with pytest.warns(RuntimeWarning, match="IR001"):
            result = run_campaign(self._spec(name), verify="warn")
        assert result.stats.n_verify_errors > 0
        assert len(result.dataset) > 0  # measured anyway

    def test_off_skips_verification(self, monkeypatch):
        import warnings as warnings_mod

        name = _register_broken_model(monkeypatch, "brokennet-off")
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            result = run_campaign(self._spec(name), verify="off")
        assert result.stats.n_verify_errors == 0

    def test_clean_zoo_campaign_passes_strict(self):
        result = run_campaign(self._spec("alexnet"), verify="strict")
        assert result.stats.n_verify_errors == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="verify mode"):
            run_campaign(self._spec("alexnet"), verify="paranoid")

    def test_verify_errors_land_in_store_manifest(self, monkeypatch,
                                                  tmp_path):
        from repro.benchdata.store import CampaignStore

        name = _register_broken_model(monkeypatch, "brokennet-store")
        spec = self._spec(name)
        store = CampaignStore.open(tmp_path / "store", spec)
        with pytest.warns(RuntimeWarning):
            run_campaign(spec, store=store, verify="warn")
        store.close()
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["stats"]["n_verify_errors"] > 0


class TestVerifyCLI:
    def test_clean_model_exits_zero(self, capsys):
        rc = main(["verify", "alexnet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "across 1 model" in out

    def test_quiet_prints_only_summary(self, capsys):
        rc = main(["verify", "resnet18", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        # resnet18's unfused BatchNorms earn the IR007 advisory.
        assert out[0] == "0 errors, 0 warnings, 1 info across 1 model"

    def test_broken_model_exits_one(self, monkeypatch, capsys):
        name = _register_broken_model(monkeypatch, "brokennet-cli")
        rc = main(["verify", name])
        assert rc == 1
        out = capsys.readouterr().out
        assert "[IR001]" in out

    def test_requires_model_or_all_zoo(self):
        with pytest.raises(SystemExit, match="--all-zoo"):
            main(["verify"])

    def test_ignore_flag_suppresses_warnings(self, capsys):
        rc = main(["verify", "resnet18", "--ignore", "IR005"])
        assert rc == 0
        assert "0 warnings" in capsys.readouterr().out

    def test_json_schema_snapshot(self, monkeypatch, capsys):
        name = _register_broken_model(monkeypatch, "brokennet-json")
        rc = main(["verify", name, "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["diagnostics", "summary"]
        assert sorted(payload["summary"]) == [
            "errors", "infos", "subjects", "unit", "warnings",
        ]
        diag = payload["diagnostics"][0]
        assert sorted(diag) == [
            "hint", "location", "message", "rule", "severity",
        ]
        assert diag["rule"] == "IR001"
        assert diag["severity"] == "ERROR"

    def test_campaign_strict_flag_clean_zoo(self, tmp_path, capsys):
        rc = main([
            "campaign", "--models", "alexnet", "--strict",
            "-o", str(tmp_path / "out.json"),
        ])
        assert rc == 0
