"""Unit tests for the DAG container, blocks, and graph metrics."""

import dataclasses

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.graph import (
    ComputeGraph,
    Node,
    Topology,
    shape_mismatches,
)
from repro.graph.layers import Activation, Conv2d, Input
from repro.graph.metrics import graph_costs, node_cost, summarize_costs
from repro.graph.tensor import TensorShape
from repro.zoo import available_models, build_model, get_entry


def _linear_chain(size=8) -> ComputeGraph:
    """input -> conv -> relu at square ``size``, an int or an image-axis
    column."""
    b = GraphBuilder("chain")
    x = b.input(3, size, size)
    x = b.conv(x, 4, kernel_size=3, padding=1)
    x = b.relu(x)
    return b.finish()


class TestComputeGraph:
    def test_length_and_iteration_order(self):
        g = _linear_chain()
        assert len(g) == 3
        types = [type(n.layer).__name__ for n in g]
        assert types == ["Input", "Conv2d", "Activation"]

    def test_duplicate_name_rejected(self):
        g = ComputeGraph("g")
        shape = TensorShape(3, 4, 4)
        g.add_node(Node("a", Input(shape), (), shape))
        with pytest.raises(ValueError, match="duplicate"):
            g.add_node(Node("a", Input(shape), (), shape))

    def test_unknown_input_rejected(self):
        g = ComputeGraph("g")
        shape = TensorShape(3, 4, 4)
        with pytest.raises(ValueError, match="unknown input"):
            g.add_node(
                Node("b", Activation("relu"), ("missing",), shape)
            )

    def test_output_node_is_unique_sink(self):
        g = _linear_chain()
        assert g.output_node.name == g.nodes[-1].name

    def test_output_node_multiple_sinks_raises(self):
        b = GraphBuilder("fork")
        x = b.input(3, 8, 8)
        b.conv(x, 4, kernel_size=1)
        b.conv(x, 4, kernel_size=1)
        with pytest.raises(ValueError, match="sinks"):
            b.graph.output_node

    def test_successors(self):
        g = _linear_chain()
        first = g.nodes[0]
        succ = g.successors(first.name)
        assert len(succ) == 1
        assert isinstance(succ[0].layer, Conv2d)

    def test_contains_and_node_lookup(self):
        g = _linear_chain()
        name = g.nodes[1].name
        assert name in g
        assert g.node(name).layer.is_conv

    def test_validate_passes_on_builder_output(self):
        _linear_chain().validate()

    def test_validate_catches_corrupted_shape(self):
        g = ComputeGraph("bad")
        in_shape = TensorShape(3, 8, 8)
        g.add_node(Node("in", Input(in_shape), (), in_shape))
        wrong = TensorShape(5, 8, 8)
        g.add_node(
            Node("conv", Conv2d(3, 4, kernel_size=1), ("in",), wrong)
        )
        with pytest.raises(ValueError, match="does not match"):
            g.validate()


def _scan_order(graph: ComputeGraph) -> list[str]:
    """``topological_order`` as it was before the successor index: the
    same Kahn walk, finding each node's successors by scanning every
    node."""
    indegree = {n.name: 0 for n in graph}
    for node in graph:
        for parent in node.inputs:
            if parent not in indegree:
                raise ValueError(
                    f"node {node.name!r} references unknown input {parent!r}"
                )
            indegree[node.name] += 1
    ready = [name for name in indegree if indegree[name] == 0]
    ordered: list[str] = []
    while ready:
        name = ready.pop(0)
        ordered.append(name)
        for succ in [n for n in graph if name in n.inputs]:
            indegree[succ.name] -= 1
            if indegree[succ.name] == 0:
                ready.append(succ.name)
    if len(ordered) != len(indegree):
        stuck = sorted(set(indegree) - set(ordered))
        raise ValueError(
            f"graph {graph.name!r} has no topological order; nodes "
            f"{stuck} sit on a cycle"
        )
    return ordered


def _rewired(graph: ComputeGraph, name: str, inputs: tuple) -> ComputeGraph:
    graph._nodes[name] = dataclasses.replace(graph.node(name), inputs=inputs)
    return graph


def _order_or_error(order) -> list[str] | str:
    try:
        return [n if isinstance(n, str) else n.name for n in order()]
    except ValueError as exc:
        return str(exc)


class TestSuccessorIndex:
    """``successors`` reads an index built once per graph; the Kahn walk
    over it is the old one, node for node and error for error."""

    @pytest.mark.parametrize("name", available_models())
    def test_order_and_errors_unchanged_on_every_zoo_graph(self, name):
        image = get_entry(name).min_image_size
        g = build_model(name, image)
        for node in g:
            assert g.successors(node.name) == [
                n for n in g if node.name in n.inputs
            ]
        assert _order_or_error(g.topological_order) == _scan_order(g)
        first, last = g.nodes[1].name, g.nodes[-1].name
        corrupt = {
            "cycle": (first, (last,)),
            "unknown-input": (last, ("ghost",)),
        }
        for node_name, inputs in corrupt.values():
            bad = _rewired(build_model(name, image), node_name, inputs)
            expected = _order_or_error(lambda: _scan_order(bad))
            assert isinstance(expected, str)
            assert _order_or_error(bad.topological_order) == expected

    def test_a_node_added_after_a_query_is_seen(self):
        g = _linear_chain()
        last = g.nodes[-1]
        assert g.successors(last.name) == []
        shape = last.output_shape
        g.add_node(Node("tail", Activation("relu"), (last.name,), shape))
        assert [n.name for n in g.successors(last.name)] == ["tail"]
        assert g.topological_order()[-1].name == "tail"

    def test_a_node_reading_one_input_twice_is_one_successor(self):
        b = GraphBuilder("twice")
        x = b.input(3, 4, 4)
        b.add(x, x)
        g = b.finish()
        assert len(g.successors(g.nodes[0].name)) == 1


class TestBlocks:
    def _blocked(self) -> ComputeGraph:
        b = GraphBuilder("blocked")
        x = b.input(3, 8, 8)
        with b.block("stage1"):
            x = b.conv_bn_act(x, 8, kernel_size=3, padding=1)
        with b.block("stage2"):
            y = b.conv(x, 8, kernel_size=1)
            x = b.add(x, y)
        return b.finish()

    def test_block_names(self):
        g = self._blocked()
        assert g.block_names() == ["stage1", "stage2"]

    def test_block_nodes(self):
        g = self._blocked()
        assert len(g.block_nodes("stage2")) == 2

    def test_unknown_block_raises(self):
        with pytest.raises(KeyError):
            self._blocked().block_nodes("nope")

    def test_subgraph_is_valid_standalone(self):
        sub = self._blocked().block_subgraph("stage2")
        sub.validate()
        # One placeholder input feeding both the conv and the add.
        inputs = sub.input_nodes
        assert len(inputs) == 1

    def test_subgraph_preserves_costs(self):
        g = self._blocked()
        sub = g.block_subgraph("stage1")
        orig = [node_cost(g, n) for n in g.block_nodes("stage1")]
        new = graph_costs(sub)
        assert sum(c.flops for c in orig) == sum(c.flops for c in new)
        assert sum(c.params for c in orig) == sum(c.params for c in new)

    def test_nested_scopes(self):
        b = GraphBuilder("nested")
        x = b.input(3, 8, 8)
        with b.block("outer"):
            with b.block("inner"):
                x = b.conv(x, 4, kernel_size=1)
        g = b.finish()
        assert g.block_names() == ["outer.inner"]
        assert len(g.block_nodes("outer")) == 1  # prefix match includes nested


class TestImageAxisGraph:
    """A graph built from an image-axis input stores every shape over the
    axis."""

    def _axis(self) -> Topology:
        return Topology(
            _linear_chain(np.array([8, 12, 16])), ("c8", "c12", "c16")
        )

    def test_shapes_are_columns_over_the_axis(self):
        conv = self._axis().graph.nodes[1]
        assert conv.output_shape.channels == 4
        assert conv.output_shape.height.tolist() == [8, 12, 16]
        assert conv.output_shape.at(1) == TensorShape(4, 12, 12)

    def test_costs_equal_the_graph_built_at_each_image(self):
        axis = self._axis()
        costs = graph_costs(axis.graph)
        for i, size in enumerate((8, 12, 16)):
            plain = graph_costs(_linear_chain(size))
            for column, scalar in zip(costs, plain):
                assert int(column.flops[i]) == scalar.flops
                assert int(column.output_elems[i]) == scalar.output_elems

    def test_a_one_image_column_matches_the_plain_int(self):
        plain = build_model("resnet50", 224)
        column = build_model("resnet50", (224,))
        assert column.name == plain.name
        assert [n.output_shape.at(0) for n in column] == [
            n.output_shape for n in plain
        ]

    def test_one_image_topology_of_a_plain_graph(self):
        g = _linear_chain()
        assert Topology.of(g).names == ("chain",)
        assert Topology.of(g).graph is g

    def test_shape_mismatch_is_reported_at_its_image_only(self):
        axis = self._axis()
        g = axis.graph
        conv = g.nodes[1]
        bad = TensorShape(4, np.array([8, 99, 16]), np.array([8, 12, 16]))
        g._nodes[conv.name] = dataclasses.replace(conv, output_shape=bad)
        found = list(shape_mismatches(g, 3))
        # The activation re-infers from the corrupt shape, so it differs too.
        assert [(n.name, i) for n, i, _, _ in found] == [
            (conv.name, 1), ("activation_0", 1)
        ]
        _, _, stored, inferred = found[0]
        assert (stored, inferred) == (
            TensorShape(4, 99, 12), TensorShape(4, 12, 12)
        )



class TestColumnRewrite:
    """The pass pipeline is a plain function of its graph: it reads
    image-axis columns by their values, so equal topologies rewrite to equal
    graphs and an edited graph is rewritten afresh."""

    AXIS = (64, 128, 224)

    @staticmethod
    def _edited(graph: ComputeGraph, index: int, **changes) -> ComputeGraph:
        """A copy of ``graph`` with node ``index`` replaced field-wise."""
        out = ComputeGraph(graph.name)
        for i, node in enumerate(graph):
            out.add_node(
                dataclasses.replace(node, **changes) if i == index else node
            )
        return out

    @staticmethod
    def _nodes(graph: ComputeGraph) -> list[tuple]:
        # A layer holding a column compares by its repr: dataclass equality
        # over numpy fields is ambiguous.
        return [(n.name, repr(n.layer), n.output_shape) for n in graph]

    def _axis(self, name: str) -> tuple[int, ...]:
        return (224, 256) if name.startswith("vit") else self.AXIS

    @pytest.mark.parametrize("name", ["resnet50", "vit_tiny_16"])
    def test_equal_topologies_rewrite_to_equal_graphs(self, name):
        from repro.graph.passes import default_inference_pipeline
        from repro.hardware.roofline import build_topology

        pipeline = default_inference_pipeline()
        axis = self._axis(name)
        first = pipeline.run(build_topology(name, axis).graph)
        second = pipeline.run(build_topology(name, axis).graph)
        assert second is not first
        assert self._nodes(second.graph) == self._nodes(first.graph)
        assert second.renames() == first.renames()
        other = pipeline.run(build_topology(name, axis[1:]).graph)
        assert self._nodes(other.graph) != self._nodes(first.graph)

    @pytest.mark.parametrize("name", ["resnet50", "vit_tiny_16"])
    def test_changing_one_column_entry_changes_the_rewrite(self, name):
        from repro.graph.passes import default_inference_pipeline
        from repro.hardware.roofline import build_topology

        pipeline = default_inference_pipeline()
        graph = build_topology(name, self._axis(name)).graph
        before = pipeline.run(graph)
        # A stored shape off at one image: canonicalisation re-derives it,
        # one more change than on the clean graph, and the same rewrite.
        index = len(graph) // 2
        shape = graph.nodes[index].output_shape
        height = shape.height.copy()
        height[-1] += 1
        moved = dataclasses.replace(shape, height=height)
        edited = pipeline.run(self._edited(graph, index, output_shape=moved))
        assert edited.results[0].changed == before.results[0].changed + 1
        assert self._nodes(edited.graph) == self._nodes(before.graph)
        # An image-dependent layer's column is read too: an edited sequence
        # length no longer fits its input, and the rewrite says so.
        for i, node in enumerate(graph):
            if node.layer.IMAGE_DEPENDENT and i > 0:
                seq = node.layer.seq_len.copy()
                seq[0] += 1
                layer = dataclasses.replace(node.layer, seq_len=seq)
                with pytest.raises(ValueError) as info:
                    pipeline.run(self._edited(graph, i, layer=layer))
                assert str(seq) in str(info.value)

    def test_plain_graph_rewrites_are_unchanged(self):
        import hashlib

        from repro.graph.passes import default_inference_pipeline

        def digest(graph: ComputeGraph) -> str:
            blob = repr(
                [(n.name, n.layer, n.output_shape) for n in graph]
            ).encode()
            return hashlib.sha256(blob).hexdigest()[:16]

        pipeline = default_inference_pipeline()
        alexnet = pipeline.run(build_model("alexnet", 64)).graph
        resnet = pipeline.run(build_model("resnet50", 224)).graph
        assert (len(alexnet), digest(alexnet)) == (16, "b66275bc7273f457")
        assert (len(resnet), digest(resnet)) == (90, "84f7f21d65de6017")

class TestGraphMetrics:
    def test_parameter_count(self, tiny_graph):
        expected = sum(n.layer.param_count() for n in tiny_graph)
        assert tiny_graph.parameter_count() == expected
        assert tiny_graph.parameter_count() > 0

    def test_parametric_layer_count(self, tiny_graph):
        # conv + bn + linear = 3 parameter-owning layers.
        assert tiny_graph.parametric_layer_count() == 3

    def test_conv_nodes(self, tiny_graph):
        assert len(tiny_graph.conv_nodes()) == 1

    def test_costs_skip_input_placeholder(self, tiny_graph):
        costs = graph_costs(tiny_graph)
        assert all(c.layer_type != "Input" for c in costs)
        assert len(costs) == len(tiny_graph) - 1

    def test_summary_conv_only_io(self, tiny_graph):
        summary = summarize_costs(tiny_graph)
        conv_costs = [c for c in graph_costs(tiny_graph) if c.is_conv]
        assert summary.conv_input_elems == sum(
            c.input_elems for c in conv_costs
        )
        assert summary.conv_output_elems == sum(
            c.output_elems for c in conv_costs
        )

    def test_summary_flops_all_layers(self, tiny_graph):
        summary = summarize_costs(tiny_graph)
        assert summary.flops == sum(c.flops for c in graph_costs(tiny_graph))

    def test_layer_cost_byte_properties(self, tiny_graph):
        cost = graph_costs(tiny_graph)[0]
        assert cost.input_bytes == 4 * cost.input_elems
        assert cost.output_bytes == 4 * cost.output_elems
        assert cost.weight_bytes == 4 * cost.params

    def test_depthwise_flags_in_costs(self):
        b = GraphBuilder("dw")
        x = b.input(8, 8, 8)
        x = b.conv(x, 8, kernel_size=3, padding=1, groups=8)
        x = b.conv(x, 16, kernel_size=1)
        g = b.finish()
        costs = graph_costs(g)
        assert costs[0].is_depthwise and costs[0].conv_groups == 8
        assert costs[1].is_pointwise and not costs[1].is_depthwise
