"""Unit tests for the GraphBuilder fluent API."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.layers import (
    Activation,
    BatchNorm2d,
    Conv2d,
    Dropout,
    GlobalAvgPool2d,
    Linear,
    Multiply,
)
from repro.graph.tensor import TensorShape


class TestBuilderBasics:
    def test_input_creates_placeholder(self):
        b = GraphBuilder("g")
        x = b.input(3, 32, 32)
        assert b.shape(x) == TensorShape(3, 32, 32)

    def test_conv_infers_in_channels(self):
        b = GraphBuilder("g")
        x = b.input(3, 32, 32)
        x = b.conv(x, 16, kernel_size=3, padding=1)
        layer = b.graph.node(x).layer
        assert isinstance(layer, Conv2d)
        assert layer.in_channels == 3

    def test_channels_helper(self):
        b = GraphBuilder("g")
        x = b.input(3, 32, 32)
        x = b.conv(x, 24, kernel_size=1)
        assert b.channels(x) == 24

    def test_fresh_names_unique(self):
        b = GraphBuilder("g")
        x = b.input(3, 8, 8)
        a = b.conv(x, 4, kernel_size=1)
        c = b.conv(x, 4, kernel_size=1)
        assert a != c

    def test_explicit_name(self):
        b = GraphBuilder("g")
        x = b.input(3, 8, 8)
        from repro.graph.layers import Activation as Act

        name = b.add_layer(Act("relu"), x, name="my_relu")
        assert name == "my_relu"
        assert "my_relu" in b.graph

    def test_finish_returns_the_built_graph(self):
        b = GraphBuilder("g")
        b.input(3, 8, 8)
        g = b.finish()
        assert len(g) == 1

    def test_shape_propagation_through_chain(self):
        b = GraphBuilder("g")
        x = b.input(3, 32, 32)
        x = b.conv(x, 8, kernel_size=3, stride=2, padding=1)
        x = b.maxpool(x, 2)
        assert b.shape(x) == TensorShape(8, 8, 8)


class TestCompositeIdioms:
    def test_conv_bn_act_sequence(self):
        b = GraphBuilder("g")
        x = b.input(3, 8, 8)
        x = b.conv_bn_act(x, 8, kernel_size=3, padding=1)
        g = b.finish()
        types = [type(n.layer) for n in g]
        assert types == [
            type(g.nodes[0].layer), Conv2d, BatchNorm2d, Activation,
        ]
        conv = g.nodes[1].layer
        assert conv.bias is False  # BN absorbs the bias

    def test_conv_bn_act_without_activation(self):
        b = GraphBuilder("g")
        x = b.input(3, 8, 8)
        b.conv_bn_act(x, 8, kernel_size=1, act=None)
        g = b.finish()
        assert not any(isinstance(n.layer, Activation) for n in g)

    def test_squeeze_excite_structure(self):
        b = GraphBuilder("g")
        x = b.input(16, 8, 8)
        out = b.squeeze_excite(x, squeeze_channels=4)
        g = b.finish()
        assert isinstance(g.node(out).layer, Multiply)
        assert any(isinstance(n.layer, GlobalAvgPool2d) for n in g)
        # SE preserves the input shape.
        assert g.node(out).output_shape == TensorShape(16, 8, 8)

    def test_classifier_head(self):
        b = GraphBuilder("g")
        x = b.input(8, 6, 6)
        out = b.classifier(x, 10, dropout=0.5)
        g = b.finish()
        assert g.node(out).output_shape == TensorShape(10)
        assert any(isinstance(n.layer, Dropout) for n in g)
        assert isinstance(g.node(out).layer, Linear)

    def test_classifier_without_dropout(self):
        b = GraphBuilder("g")
        x = b.input(8, 6, 6)
        b.classifier(x, 10)
        g = b.finish()
        assert not any(isinstance(n.layer, Dropout) for n in g)


class TestScopes:
    def test_scope_applied(self):
        b = GraphBuilder("g")
        x = b.input(3, 8, 8)
        with b.block("s1"):
            x = b.conv(x, 4, kernel_size=1)
        g = b.finish()
        assert g.node(x).block == "s1"

    def test_scope_restored_after_exception(self):
        b = GraphBuilder("g")
        b.input(3, 8, 8)
        with pytest.raises(RuntimeError):
            with b.block("s1"):
                raise RuntimeError("boom")
        assert b._scope == ""

    def test_nested_scope_string(self):
        b = GraphBuilder("g")
        x = b.input(3, 8, 8)
        with b.block("a"):
            with b.block("b"):
                x = b.conv(x, 4, kernel_size=1)
        assert b.graph.node(x).block == "a.b"

    def test_input_outside_scope(self):
        b = GraphBuilder("g")
        with b.block("s"):
            x = b.input(3, 8, 8)
        assert b.graph.node(x).block == "s"
