"""Numerical reference executor: validates IR semantics on real arrays.

Every layer's output shape must agree with the IR's shape inference, and
the operator implementations are cross-checked against independent
formulations (a direct sum over kernel offsets).
"""

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.layers import Conv2d
from repro.graph.reference import (
    ReferenceExecutor,
    conv2d_forward,
    im2col,
)
from repro.zoo.registry import build_model


def _direct_conv(x, weight, stride, padding):
    """Naive direct convolution, one group: for each kernel offset, the
    strided window of the padded input it touches, weighted by that tap and
    summed over input channels.  Independent of ``im2col``."""
    b, cin, h, w = x.shape
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    kh, kw = weight.shape[2:]
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    out = np.zeros((b, weight.shape[0], oh, ow))
    for i in range(kh):
        for j in range(kw):
            window = padded[:, :, i : i + stride * oh : stride,
                            j : j + stride * ow : stride]
            out += np.einsum("bchw,oc->bohw", window, weight[:, :, i, j])
    return out


class TestConvolution:
    def test_im2col_shape(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 27, 25)

    def test_conv_matches_direct(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 9, 9))
        layer = Conv2d(3, 5, kernel_size=3, stride=2, padding=1, bias=False)
        w = rng.normal(size=(5, 3, 3, 3))
        ours = conv2d_forward(x, layer, w, None)
        ref = _direct_conv(x, w, 2, (1, 1))
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_grouped_conv_blocks_independent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 6, 6))
        layer = Conv2d(4, 4, kernel_size=3, padding=1, groups=2, bias=False)
        w = rng.normal(size=(4, 2, 3, 3))
        out = conv2d_forward(x, layer, w, None)
        # Group 0 must only depend on channels 0-1: zeroing channels 2-3
        # cannot change the first two output channels.
        x2 = x.copy()
        x2[:, 2:] = 0.0
        out2 = conv2d_forward(x2, layer, w, None)
        np.testing.assert_allclose(out[:, :2], out2[:, :2])
        assert not np.allclose(out[:, 2:], out2[:, 2:])

    def test_depthwise_equals_per_channel_conv(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 3, 7, 7))
        layer = Conv2d(3, 3, kernel_size=3, padding=1, groups=3, bias=False)
        w = rng.normal(size=(3, 1, 3, 3))
        out = conv2d_forward(x, layer, w, None)
        for c in range(3):
            single = _direct_conv(x[:, c : c + 1], w[c : c + 1], 1, (1, 1))
            np.testing.assert_allclose(out[:, c : c + 1], single, rtol=1e-10)

    def test_bias_added(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 4, 4))
        layer = Conv2d(2, 2, kernel_size=1)
        w = rng.normal(size=(2, 2, 1, 1))
        bias = np.array([1.0, -2.0])
        with_bias = conv2d_forward(x, layer, w, bias)
        without = conv2d_forward(x, layer, w, None)
        np.testing.assert_allclose(
            with_bias - without, bias[None, :, None, None] * np.ones_like(without)
        )

    def test_dilated_conv_shape(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 9, 9))
        layer = Conv2d(2, 2, kernel_size=3, dilation=2, bias=False)
        w = rng.normal(size=(2, 2, 3, 3))
        out = conv2d_forward(x, layer, w, None)
        assert out.shape == (1, 2, 5, 5)


class TestExecutorAgainstShapeInference:
    @pytest.mark.parametrize(
        "build",
        [
            lambda b, x: b.maxpool(x, 3, stride=2),
            lambda b, x: b.avgpool(x, 2),
            lambda b, x: b.maxpool(x, 3, stride=2, ceil_mode=True),
            lambda b, x: b.adaptive_avgpool(x, 3),
            lambda b, x: b.global_avgpool(x),
            lambda b, x: b.act(x, "silu"),
            lambda b, x: b.act(x, "hardswish"),
            lambda b, x: b.bn(x),
            lambda b, x: b.lrn(x),
            lambda b, x: b.conv(x, 5, kernel_size=3, padding=1),
            lambda b, x: b.concat(x, x),
            lambda b, x: b.add(x, x),
        ],
    )
    def test_output_shape_matches_inference(self, build):
        b = GraphBuilder("g")
        x = b.input(4, 11, 11)
        out = build(b, x)
        g = b.finish()
        result = ReferenceExecutor(g, seed=0).run(
            np.random.default_rng(5).normal(size=(2, 4, 11, 11))
        )
        expected = g.node(out).output_shape
        assert result.shape == (2, expected.channels, expected.height,
                                expected.width)

    def test_flat_head_shapes(self):
        b = GraphBuilder("g")
        x = b.input(4, 8, 8)
        x = b.classifier(x, 10)
        g = b.finish()
        out = ReferenceExecutor(g).run(np.zeros((3, 4, 8, 8)))
        assert out.shape == (3, 10)

    def test_se_gate_bounded_scaling(self):
        b = GraphBuilder("g")
        x = b.input(8, 6, 6)
        b.squeeze_excite(x, 2)
        g = b.finish()
        data = np.abs(np.random.default_rng(6).normal(size=(1, 8, 6, 6)))
        out = ReferenceExecutor(g, seed=1).run(data)
        # Sigmoid gate is in (0, 1): output magnitude cannot exceed input.
        assert np.all(np.abs(out) <= np.abs(data) + 1e-12)

    def test_residual_add_linearity(self):
        b = GraphBuilder("g")
        x = b.input(4, 5, 5)
        y = b.bn(x)
        b.add(x, y)
        g = b.finish()
        ex = ReferenceExecutor(g, seed=2)
        data = np.random.default_rng(7).normal(size=(1, 4, 5, 5))
        out = ex.run(data)
        # Fresh BN is the identity (zero mean/unit var stats): x + x = 2x.
        np.testing.assert_allclose(out, 2 * data, rtol=1e-5)


class TestExecutorOnModels:
    def test_resnet18_runs_and_shapes(self):
        g = build_model("resnet18", 32, num_classes=7)
        out = ReferenceExecutor(g, seed=0).run(np.zeros((1, 3, 32, 32)))
        assert out.shape == (1, 7)

    def test_squeezenet_runs(self):
        g = build_model("squeezenet1_0", 64, num_classes=5)
        out = ReferenceExecutor(g, seed=0).run(
            np.random.default_rng(0).normal(size=(1, 3, 64, 64))
        )
        assert out.shape == (1, 5)

    def test_mobilenet_v3_small_runs(self):
        g = build_model("mobilenet_v3_small", 32, num_classes=4)
        out = ReferenceExecutor(g, seed=0).run(np.zeros((2, 3, 32, 32)))
        assert out.shape == (2, 4)

    def test_block_subgraph_executes_with_feeds(self):
        g = build_model("resnet18", 32)
        sub = g.block_subgraph("layer4.1")
        inputs = sub.input_nodes
        assert len(inputs) == 1
        shape = inputs[0].output_shape
        feed = np.random.default_rng(1).normal(
            size=(1, shape.channels, shape.height, shape.width)
        )
        out = ReferenceExecutor(sub, seed=0).run_with_inputs(
            {inputs[0].name: feed}
        )
        expected = sub.output_node.output_shape
        assert out.shape == (1, expected.channels, expected.height,
                             expected.width)

    def test_missing_feed_raises(self):
        g = build_model("resnet18", 32)
        sub = g.block_subgraph("layer4.1")
        with pytest.raises(ValueError, match="missing feed"):
            ReferenceExecutor(sub).run_with_inputs({})

    def test_deterministic_given_seed(self):
        g = build_model("resnet18", 32)
        data = np.random.default_rng(2).normal(size=(1, 3, 32, 32))
        a = ReferenceExecutor(g, seed=5).run(data)
        b = ReferenceExecutor(g, seed=5).run(data)
        np.testing.assert_array_equal(a, b)
