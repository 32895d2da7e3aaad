"""Layer taxonomy for the ConvNet IR.

Each layer knows how to infer its output shape from its input shapes, how
many parameters it owns, and how many floating-point operations it costs per
sample.  FLOPs follow the paper's convention (Section 3): the cost of the
mathematical definition of the operator, "without considering any
optimization techniques or actual hardware implementation".  Multiply and
accumulate are counted as two FLOPs.

Shape inference, parameter and FLOP counts are integer expressions that
also hold over an image axis (see :mod:`repro.graph.tensor`): evaluated on
a graph whose dims are int64 columns, they give every image's value at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.graph.tensor import (
    TensorShape,
    anywhere,
    conv_output_hw,
    pool_output_hw_ceil,
    same_dim,
)


def _pair(v: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(v, tuple):
        return v
    return (v, v)


def _window_hw(
    shape: TensorShape,
    kernel: int | tuple[int, int],
    stride: int | tuple[int, int],
    padding: int | tuple[int, int],
    dilation: int = 1,
    ceil_mode: bool = False,
) -> tuple[int, int]:
    """Output height and width of a sliding window over a feature map.

    A square window over a map whose two sides are one object (every
    square image axis) computes one side and returns it twice.
    """
    (kh, kw), (sh, sw), (ph, pw) = _pair(kernel), _pair(stride), _pair(padding)

    def side(size, k: int, s: int, p: int):
        if ceil_mode:
            return pool_output_hw_ceil(size, k, s, p)
        return conv_output_hw(size, k, s, p, dilation)

    out_h = side(shape.height, kh, sh, ph)
    if shape.width is shape.height and (kw, sw, pw) == (kh, sh, ph):
        return out_h, out_h
    return out_h, side(shape.width, kw, sw, pw)


@dataclass(frozen=True)
class Layer:
    """Base class for all IR layers."""

    #: Number of inputs the layer expects; ``None`` means variadic (>= 1).
    ARITY: int | None = field(default=1, init=False, repr=False)
    #: True for the layers whose parameters follow from the image size —
    #: the graph input and ViT's position embedding.  Every other layer is
    #: identical at every image size of a model.
    IMAGE_DEPENDENT: ClassVar[bool] = False

    def infer_shape(self, inputs: Sequence[TensorShape]) -> TensorShape:
        """Output shape given per-sample input shapes."""
        self._check_arity(inputs)
        return self._infer(inputs)

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        return inputs[0]

    def _check_arity(self, inputs: Sequence[TensorShape]) -> None:
        if self.ARITY is None:
            if not inputs:
                raise ValueError(f"{type(self).__name__} needs at least one input")
        elif len(inputs) != self.ARITY:
            raise ValueError(
                f"{type(self).__name__} expects {self.ARITY} input(s), "
                f"got {len(inputs)}"
            )

    def at(self, i: int) -> "Layer":
        """This layer at image ``i`` of its axis: only an image-dependent
        layer built over an image axis differs from its own value."""
        return self

    def param_count(self) -> int:
        """Number of learnable parameters."""
        return 0

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        """Floating-point operations per sample (MAC = 2 FLOPs)."""
        return 0

    @property
    def is_conv(self) -> bool:
        """True for convolutional layers (the metrics the paper sums over)."""
        return False

    @property
    def has_params(self) -> bool:
        return anywhere(self.param_count() > 0)


@dataclass(frozen=True)
class Input(Layer):
    """Graph input placeholder carrying the image shape."""

    shape: TensorShape = TensorShape(3, 224, 224)

    ARITY = 0
    IMAGE_DEPENDENT = True

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        return self.shape

    def at(self, i: int) -> "Input":
        return Input(self.shape.at(i))


@dataclass(frozen=True)
class Conv2d(Layer):
    """2-D convolution, optionally grouped/depthwise and dilated."""

    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int | tuple[int, int] = 3
    stride: int | tuple[int, int] = 1
    padding: int | tuple[int, int] = 0
    groups: int = 1
    dilation: int = 1
    bias: bool = True

    def __post_init__(self) -> None:
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ValueError("Conv2d channel counts must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide in_channels="
                f"{self.in_channels} and out_channels={self.out_channels}"
            )

    @property
    def is_conv(self) -> bool:
        return True

    @property
    def is_depthwise(self) -> bool:
        """Depthwise convolutions have one input channel per group."""
        return self.groups == self.in_channels and self.groups > 1

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial:
            raise ValueError("Conv2d requires a spatial input")
        if anywhere(shape.channels != self.in_channels):
            raise ValueError(
                f"Conv2d expects {self.in_channels} channels, got {shape.channels}"
            )
        out_h, out_w = _window_hw(
            shape, self.kernel_size, self.stride, self.padding, self.dilation
        )
        return TensorShape(self.out_channels, out_h, out_w)

    def param_count(self) -> int:
        kh, kw = _pair(self.kernel_size)
        weights = self.out_channels * (self.in_channels // self.groups) * kh * kw
        return weights + (self.out_channels if self.bias else 0)

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        kh, kw = _pair(self.kernel_size)
        macs_per_out = (self.in_channels // self.groups) * kh * kw
        macs = output.numel * macs_per_out
        bias_adds = output.numel if self.bias else 0
        return 2 * macs + bias_adds


@dataclass(frozen=True)
class BatchNorm2d(Layer):
    """Batch normalisation over channels; at inference a per-channel affine."""

    num_features: int = 0

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if anywhere(shape.channels != self.num_features):
            raise ValueError(
                f"BatchNorm2d expects {self.num_features} channels, "
                f"got {shape.channels}"
            )
        return shape

    def param_count(self) -> int:
        return 2 * self.num_features  # scale and shift

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        return 2 * output.numel  # one multiply, one add per element


@dataclass(frozen=True)
class Activation(Layer):
    """Pointwise nonlinearity.

    ``kind`` is informational (relu, relu6, silu, hardswish, sigmoid,
    hardsigmoid, tanh, gelu); the cost model charges a small per-element cost
    that differs only between cheap (clamp-style) and transcendental kinds.
    """

    kind: str = "relu"

    _CHEAP = frozenset({"relu", "relu6", "hardswish", "hardsigmoid", "leaky_relu"})

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        per_elem = 1 if self.kind in self._CHEAP else 4
        return per_elem * output.numel


def _epilogue_flops(activation: str, output: TensorShape) -> int:
    """FLOPs of an activation absorbed into a producing layer's epilogue.

    The arithmetic survives fusion (the fused kernel still clamps every
    output element); only the extra tensor round-trip disappears, which is
    a memory effect, not a FLOP effect.
    """
    if not activation:
        return 0
    per_elem = 1 if activation in Activation._CHEAP else 4
    return per_elem * output.numel


@dataclass(frozen=True)
class FusedConv2d(Conv2d):
    """A convolution with a folded BatchNorm and/or an absorbed activation.

    Produced by the :mod:`repro.graph.passes` rewrites, never by model
    builders.  ``bn_features`` counts the channels of a folded BatchNorm —
    its scale/shift pairs remain learnable state baked into the kernel, so
    ``param_count`` keeps the paper's Weights metric W exactly conserved
    under folding.  ``activation`` names an absorbed pointwise epilogue;
    its FLOPs stay (the fused kernel still applies it) while the separate
    activation tensor round-trip disappears from the cost model because the
    standalone node no longer exists.
    """

    bn_features: int = 0
    activation: str = ""

    def param_count(self) -> int:
        return super().param_count() + 2 * self.bn_features

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        return self.conv_flops(inputs, output) + _epilogue_flops(
            self.activation, output
        )

    def conv_flops(
        self, inputs: Sequence[TensorShape], output: TensorShape
    ) -> int:
        """The convolution's own mathematical cost, excluding the epilogue.

        Folding a BatchNorm rescales the kernel in place, so this equals
        the unfused convolution's FLOPs exactly — the conservation law the
        verifier's transform check asserts.
        """
        return Conv2d.flops(self, inputs, output)


@dataclass(frozen=True)
class _Pool2d(Layer):
    kernel_size: int | tuple[int, int] = 2
    stride: int | tuple[int, int] | None = None
    padding: int | tuple[int, int] = 0
    ceil_mode: bool = False

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial:
            raise ValueError(f"{type(self).__name__} requires a spatial input")
        stride = self.stride if self.stride is not None else self.kernel_size
        out_h, out_w = _window_hw(
            shape, self.kernel_size, stride, self.padding,
            ceil_mode=self.ceil_mode,
        )
        return TensorShape(shape.channels, out_h, out_w)

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        kh, kw = _pair(self.kernel_size)
        return output.numel * kh * kw


@dataclass(frozen=True)
class MaxPool2d(_Pool2d):
    """Max pooling."""


@dataclass(frozen=True)
class AvgPool2d(_Pool2d):
    """Average pooling."""


@dataclass(frozen=True)
class AdaptiveAvgPool2d(Layer):
    """Average pooling to a fixed output size regardless of input size."""

    output_size: int | tuple[int, int] = 1

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial:
            raise ValueError("AdaptiveAvgPool2d requires a spatial input")
        oh, ow = _pair(self.output_size)
        return TensorShape(shape.channels, oh, ow)

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        # Every input element is read and accumulated exactly once.
        return inputs[0].numel + output.numel


@dataclass(frozen=True)
class GlobalAvgPool2d(Layer):
    """Squeeze step of squeeze-and-excitation: spatial mean per channel."""

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial:
            raise ValueError("GlobalAvgPool2d requires a spatial input")
        return TensorShape(shape.channels, 1, 1)

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        return inputs[0].numel


@dataclass(frozen=True)
class Linear(Layer):
    """Fully connected layer on flat vectors."""

    in_features: int = 0
    out_features: int = 0
    bias: bool = True

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if shape.is_spatial:
            raise ValueError("Linear requires a flat input; insert Flatten first")
        if anywhere(shape.channels != self.in_features):
            raise ValueError(
                f"Linear expects {self.in_features} features, got {shape.channels}"
            )
        return TensorShape(self.out_features)

    def param_count(self) -> int:
        return self.in_features * self.out_features + (
            self.out_features if self.bias else 0
        )

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        macs = self.in_features * self.out_features
        return 2 * macs + (self.out_features if self.bias else 0)


@dataclass(frozen=True)
class FusedLinear(Linear):
    """A fully connected layer with a folded norm / absorbed activation.

    The linear-layer counterpart of :class:`FusedConv2d`, with the same
    conservation accounting.
    """

    bn_features: int = 0
    activation: str = ""

    def param_count(self) -> int:
        return super().param_count() + 2 * self.bn_features

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        return Linear.flops(self, inputs, output) + _epilogue_flops(
            self.activation, output
        )


@dataclass(frozen=True)
class Flatten(Layer):
    """Collapse a feature map into a flat vector."""

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        return inputs[0].flattened()


@dataclass(frozen=True)
class Dropout(Layer):
    """Dropout; a no-op for inference cost, kept for architectural fidelity."""

    p: float = 0.5


@dataclass(frozen=True)
class Add(Layer):
    """Elementwise sum of identically shaped tensors (residual join)."""

    ARITY = None

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        first = inputs[0]
        for other in inputs[1:]:
            if other != first:
                raise ValueError(f"Add inputs differ in shape: {first} vs {other}")
        return first

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        return (len(inputs) - 1) * output.numel


@dataclass(frozen=True)
class Concat(Layer):
    """Channel-wise concatenation (DenseNet, Inception branches)."""

    ARITY = None

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        first = inputs[0]
        if not first.is_spatial:
            raise ValueError("Concat requires spatial inputs")
        for other in inputs[1:]:
            if not (
                same_dim(other.height, first.height)
                and same_dim(other.width, first.width)
            ):
                raise ValueError(
                    f"Concat spatial dims differ: {first} vs {other}"
                )
        channels = sum(s.channels for s in inputs)
        return TensorShape(channels, first.height, first.width)


@dataclass(frozen=True)
class Multiply(Layer):
    """Elementwise product with channel broadcasting (SE excitation scale)."""

    ARITY = 2

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        a, b = inputs
        if anywhere(a.channels != b.channels):
            raise ValueError(f"Multiply channel mismatch: {a} vs {b}")
        # Broadcast the (C,1,1) gate over the (C,H,W) map.
        if not anywhere(a.numel < b.numel):
            return a
        if not anywhere(a.numel >= b.numel):
            return b
        raise ValueError(
            f"Multiply broadcast direction differs across images: {a} vs {b}"
        )

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        return output.numel


@dataclass(frozen=True)
class LocalResponseNorm(Layer):
    """AlexNet-era local response normalisation."""

    size: int = 5

    def flops(self, inputs: Sequence[TensorShape], output: TensorShape) -> int:
        # size multiply-accumulates plus a divide/power per element.
        return output.numel * (2 * self.size + 4)


@dataclass(frozen=True)
class ZeroPad2d(Layer):
    """Explicit spatial zero padding."""

    padding: int | tuple[int, int] = 1

    def _infer(self, inputs: Sequence[TensorShape]) -> TensorShape:
        (shape,) = inputs
        if not shape.is_spatial:
            raise ValueError("ZeroPad2d requires a spatial input")
        ph, pw = _pair(self.padding)
        return TensorShape(shape.channels, shape.height + 2 * ph, shape.width + 2 * pw)
