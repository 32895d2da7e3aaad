"""Model zoo: registry behaviour and architectural fidelity.

Parameter counts are checked against the published torchvision values —
the strongest cheap evidence that the graph definitions match the
architectures the paper profiled.
"""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.graph import ComputeGraph
from repro.graph.layers import Activation, Layer
from repro.graph.metrics import summarize_costs
from repro.hardware.roofline import build_topology
from repro.zoo import available_models, build_model, get_entry
from repro.zoo.blocks import BLOCK_CATALOGUE, block_by_name, build_block

#: The paper's campaign image sizes.
CAMPAIGN_IMAGES = (32, 64, 96, 128, 160, 192, 224)

#: Published torchvision parameter counts (1000 classes).
PUBLISHED_PARAMS = {
    "alexnet": 61_100_840,
    "vgg11": 132_863_336,
    "vgg13": 133_047_848,
    "vgg16": 138_357_544,
    "vgg19": 143_667_240,
    "resnet18": 11_689_512,
    "resnet34": 21_797_672,
    "resnet50": 25_557_032,
    "resnet101": 44_549_160,
    "resnet152": 60_192_808,
    "wide_resnet50_2": 68_883_240,
    "resnext50_32x4d": 25_028_904,
    "resnext101_32x8d": 88_791_336,
    "squeezenet1_0": 1_248_424,
    "squeezenet1_1": 1_235_496,
    "mobilenet_v2": 3_504_872,
    "densenet121": 7_978_856,
    "densenet169": 14_149_480,
    "densenet201": 20_013_928,
    "efficientnet_b1": 7_794_184,
    "efficientnet_b2": 9_109_994,
    "efficientnet_b3": 12_233_232,
    "inception_v3": 23_834_568,
    "regnet_y_400mf": 4_344_144,
    "regnet_y_8gf": 39_381_472,
    "vit_base_16": 86_567_656,
}


class TestRegistry:
    def test_available_models_sorted_nonempty(self):
        models = available_models()
        assert models == sorted(models)
        assert len(models) >= 14

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            build_model("not_a_net")

    def test_min_image_size_enforced(self):
        entry = get_entry("alexnet")
        with pytest.raises(ValueError, match="image_size"):
            build_model("alexnet", entry.min_image_size - 1)

    def test_min_image_size_builds(self):
        for name in available_models():
            entry = get_entry(name)
            g = build_model(name, entry.min_image_size)
            g.validate()

    def test_entry_metadata(self):
        entry = get_entry("resnet50")
        assert entry.display == "ResNet50"
        assert entry.family == "resnet"

    def test_duplicate_registration_rejected(self):
        from repro.zoo.registry import register_model

        with pytest.raises(ValueError, match="already registered"):
            register_model("resnet50", lambda i, n: None)

    def test_zoo_modules_import_once(self, monkeypatch):
        from repro.zoo import registry

        available_models()

        def no_import(name):
            raise AssertionError(f"re-imported {name}")

        monkeypatch.setattr(registry.importlib, "import_module", no_import)
        assert "alexnet" in available_models()
        assert get_entry("alexnet").name == "alexnet"

    def test_model_registered_later_is_seen(self, monkeypatch):
        from repro.serve.protocol import PredictQuery, ProtocolError
        from repro.zoo import registry

        with pytest.raises(ProtocolError, match="unknown network"):
            PredictQuery.parse({"network": "late_net"})
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        registry.register_model("late_net", get_entry("alexnet").builder)
        assert PredictQuery.parse({"network": "late_net"}).network == "late_net"
        assert "late_net" in available_models()


class TestArchitecturalFidelity:
    @pytest.mark.parametrize("name,expected", sorted(PUBLISHED_PARAMS.items()))
    def test_parameter_count_matches_torchvision(self, name, expected):
        image = 299 if name == "inception_v3" else 224
        g = build_model(name, image)
        assert g.parameter_count() == expected

    @pytest.mark.parametrize(
        "name",
        sorted(n for n in PUBLISHED_PARAMS if not n.startswith("vit")),
    )
    def test_params_independent_of_image_size(self, name):
        entry = get_entry(name)
        small = build_model(name, max(entry.min_image_size, 96))
        large = build_model(name, 224 if name != "inception_v3" else 299)
        assert small.parameter_count() == large.parameter_count()

    def test_vit_params_grow_with_image_size(self):
        # Unlike ConvNets, the positional embedding scales with the token
        # count, so ViT parameters legitimately depend on the image size.
        small = build_model("vit_base_16", 96).parameter_count()
        large = build_model("vit_base_16", 224).parameter_count()
        assert large > small

    @pytest.mark.parametrize("name", ["resnet50", "mobilenet_v2", "vgg16"])
    def test_flops_grow_with_image_size(self, name):
        small = summarize_costs(build_model(name, 96)).flops
        large = summarize_costs(build_model(name, 192)).flops
        # Convolution cost is roughly quadratic in image size.
        assert 3.0 < large / small < 5.0

    def test_head_outputs_num_classes(self):
        for name in ("alexnet", "resnet18", "efficientnet_b0"):
            g = build_model(name, 224, num_classes=17)
            assert g.output_node.output_shape.numel == 17

    def test_resnet50_known_flops(self):
        # ~4.1 GMACs at 224px => ~8.2 GFLOPs with the 2-per-MAC convention.
        flops = summarize_costs(build_model("resnet50", 224)).flops
        assert 8.0e9 < flops < 8.7e9

    def test_vgg16_known_flops(self):
        # ~15.5 GMACs at 224px.
        flops = summarize_costs(build_model("vgg16", 224)).flops
        assert 30.0e9 < flops < 32.0e9

    def test_mobilenet_v2_known_flops(self):
        # ~0.3 GMACs at 224px.
        flops = summarize_costs(build_model("mobilenet_v2", 224)).flops
        assert 0.58e9 < flops < 0.68e9

    def test_efficientnet_b0_params(self):
        g = build_model("efficientnet_b0", 224)
        assert abs(g.parameter_count() - 5_288_548) < 60_000

    def test_mobilenet_v3_large_params(self):
        g = build_model("mobilenet_v3_large", 224)
        assert abs(g.parameter_count() - 5_483_032) < 80_000

    def test_mobilenet_v3_small_params(self):
        g = build_model("mobilenet_v3_small", 224)
        assert abs(g.parameter_count() - 2_542_856) < 60_000

    def test_regnet_x_8gf_params(self):
        g = build_model("regnet_x_8gf", 224)
        assert abs(g.parameter_count() - 39_572_648) < 400_000

    def test_densenet_inputs_exceed_outputs(self):
        # The Section 3.1 observation: DenseNet concatenation makes conv
        # *input* volume much larger than conv output volume.
        s = summarize_costs(build_model("densenet121", 224))
        assert s.conv_input_elems > 1.5 * s.conv_output_elems

    def test_most_models_outputs_exceed_inputs(self):
        # "The output tensor size of each layer tends to increase throughout
        # most ConvNets" — at least relative to inputs summed over convs.
        for name in ("resnet50", "vgg16", "alexnet"):
            s = summarize_costs(build_model(name, 224))
            assert s.conv_output_elems > s.conv_input_elems

    def test_efficientnet_compound_scaling_monotone(self):
        # B0 < B1 < B2 < B3 in both params and FLOPs at a fixed image size.
        params, flops = [], []
        for variant in ("b0", "b1", "b2", "b3"):
            g = build_model(f"efficientnet_{variant}", 224)
            params.append(g.parameter_count())
            flops.append(summarize_costs(g).flops)
        assert params == sorted(params)
        assert flops == sorted(flops)

    def test_densenet_depth_scaling_monotone(self):
        params = [
            build_model(f"densenet{d}", 224).parameter_count()
            for d in (121, 169, 201)
        ]
        assert params == sorted(params)

    def test_alexnet_weights_dominated_by_fc(self):
        g = build_model("alexnet", 224)
        fc_params = sum(
            n.layer.param_count()
            for n in g
            if type(n.layer).__name__ == "Linear"
        )
        assert fc_params > 0.9 * g.parameter_count()


def same_topology(a: ComputeGraph, b: ComputeGraph) -> bool:
    """True when two graphs are one topology.

    Both have the same node names in the same order, the same wiring and
    block scopes, and equal layers, parameters included — except that an
    image-dependent layer (``Layer.IMAGE_DEPENDENT``: the graph input and
    ViT's position embedding) need only have the same type.  Graph names
    and stored shapes are not compared.  A zoo model's graphs at all
    campaign image sizes are one topology, which is what lets
    ``build_model`` build them all at once over the image axis.
    """
    if len(a) != len(b):
        return False
    for na, nb in zip(a, b):
        if (na.name, na.inputs, na.block) != (nb.name, nb.inputs, nb.block):
            return False
        if type(na.layer) is not type(nb.layer):
            return False
        if not na.layer.IMAGE_DEPENDENT and na.layer != nb.layer:
            return False
    return True


def _linear_chain() -> ComputeGraph:
    b = GraphBuilder("chain")
    x = b.input(3, 8, 8)
    x = b.conv(x, 4, kernel_size=3, padding=1)
    x = b.relu(x)
    return b.finish()


class TestTopologyComparison:
    def test_same_graph_matches(self):
        assert same_topology(_linear_chain(), _linear_chain())

    def test_different_layer_type_fails(self):
        b = GraphBuilder("other")
        x = b.input(3, 8, 8)
        x = b.conv(x, 4, kernel_size=3, padding=1)
        x = b.bn(x)
        assert not same_topology(_linear_chain(), b.finish())

    def test_different_length_fails(self):
        b = GraphBuilder("short")
        b.input(3, 8, 8)
        assert not same_topology(_linear_chain(), b.finish())

    def test_other_image_size_is_the_same_topology(self):
        b = GraphBuilder("chain_16")
        x = b.input(3, 16, 16)
        x = b.conv(x, 4, kernel_size=3, padding=1)
        b.relu(x)
        assert same_topology(_linear_chain(), b.finish())

    def test_different_layer_parameters_fail(self):
        b = GraphBuilder("chain")
        x = b.input(3, 8, 8)
        x = b.conv(x, 4, kernel_size=3, padding=1, bias=False)
        b.relu(x)
        assert not same_topology(_linear_chain(), b.finish())

    def test_different_block_scope_fails(self):
        b = GraphBuilder("chain")
        x = b.input(3, 8, 8)
        with b.block("stem"):
            x = b.conv(x, 4, kernel_size=3, padding=1)
        b.relu(x)
        assert not same_topology(_linear_chain(), b.finish())

    def test_different_node_names_fail(self):
        b = GraphBuilder("chain")
        x = b.input(3, 8, 8)
        x = b.conv(x, 4, kernel_size=3, padding=1)
        b.add_layer(Activation("relu"), x, name="act")
        assert not same_topology(_linear_chain(), b.finish())


class TestOneTopologyPerModel:
    """The invariant image-axis costing relies on: a model's graphs at all
    campaign image sizes are one topology, and its shapes inferred over
    the axis equal the stored shapes of the graph built at each size."""

    @pytest.mark.parametrize("name", available_models())
    def test_every_image_size_is_one_topology(self, name):
        images = [
            i for i in CAMPAIGN_IMAGES
            if i >= get_entry(name).min_image_size
        ]
        topology = build_topology(name, images)
        reference = build_model(name, max(images))
        for i, image in enumerate(images):
            graph = build_model(name, image)
            assert graph.name == topology.names[i] == f"{name}_{image}"
            assert same_topology(reference, graph)
            for built, axis in zip(graph, topology.graph):
                assert axis.layer.at(i) == built.layer
                assert axis.output_shape.at(i) == built.output_shape

    @pytest.mark.parametrize("name", available_models())
    def test_shapes_are_inferred_once_per_node(self, name, monkeypatch):
        """The one build over the axis is the topology: nothing re-infers
        its shapes afterwards."""
        images = [
            i for i in CAMPAIGN_IMAGES
            if i >= get_entry(name).min_image_size
        ]
        infer_shape = Layer.infer_shape
        calls = []

        def counted(layer, inputs):
            calls.append(layer)
            return infer_shape(layer, inputs)

        monkeypatch.setattr(Layer, "infer_shape", counted)
        topology = build_topology(name, images)
        assert len(calls) == len(topology.graph)

    def test_image_size_must_be_a_patch_multiple_on_the_axis(self):
        with pytest.raises(ValueError, match="divisible"):
            build_topology("vit_tiny_16", (96, 100))

    def test_image_size_below_the_minimum_is_refused_on_the_axis(self):
        with pytest.raises(ValueError, match="requires image_size >="):
            build_topology("alexnet", (32, 224))


class TestBlocks:
    def test_catalogue_has_nine_blocks(self):
        assert len(BLOCK_CATALOGUE) == 9

    @pytest.mark.parametrize("spec", BLOCK_CATALOGUE, ids=lambda s: s.name)
    def test_block_builds_and_validates(self, spec):
        g = build_block(spec, 224)
        g.validate()
        assert len(g) > 1

    def test_block_by_name(self):
        spec = block_by_name("MBConv")
        assert spec.model == "efficientnet_b0"

    def test_unknown_block_raises(self):
        with pytest.raises(KeyError):
            block_by_name("NotABlock")

    def test_block_respects_min_image(self):
        spec = block_by_name("Conv2d 3x3")  # from InceptionV3, min 75
        with pytest.raises(ValueError):
            build_block(spec, 64)

    def test_block_display_source(self):
        assert block_by_name("Bottleneck4").display_source == "ResNet50"

    def test_block_smaller_than_parent(self):
        spec = block_by_name("Bottleneck4")
        block = build_block(spec, 224)
        parent = build_model(spec.model, 224)
        assert len(block) < len(parent) / 4
        assert block.parameter_count() < parent.parameter_count()
