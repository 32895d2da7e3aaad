"""Tensor shape arithmetic for the ConvNet IR.

Shapes are per-sample (no batch dimension).  ConvMeter's metrics scale
linearly with the batch size, so the IR counts everything for a single image
and the performance models multiply by the (mini-)batch size later — exactly
the factorisation used in Eq. 3 of the paper.

A dim is a plain ``int`` or, for a graph built over an axis of image sizes
(:func:`repro.zoo.build_model` with a sequence of sizes), an int64 column
with one entry per image.  Every shape and cost expression is
integer arithmetic that broadcasts over such columns, so entry ``i`` of a
result equals the plain-``int`` result at image ``i`` exactly; comparisons
go through :func:`anywhere`, which reads "at some image of the axis".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Bytes per element for single-precision floats, the precision used by the
#: paper's PyTorch benchmarks.
FLOAT32_BYTES = 4


def anywhere(condition) -> bool:
    """A comparison's result as one ``bool``: true when it holds at any
    image of an axis column, or simply true for plain values."""
    if isinstance(condition, np.ndarray):
        return bool(np.count_nonzero(condition))
    return bool(condition)


def same_dim(a, b) -> bool:
    """True when two dims (or two ``None``) are equal at every image."""
    return a is b or not anywhere(a != b)


def at_image(value, i: int):
    """``value`` at image ``i`` of its axis: a column's entry as an ``int``;
    plain values (ints, ``None``) are the same at every image."""
    if isinstance(value, np.ndarray):
        return int(value[i])
    return value


@dataclass(frozen=True)
class TensorShape:
    """Shape of a per-sample activation tensor.

    Either a feature map (``channels, height, width``) or a flat vector
    (``channels`` only, ``height = width = None``).  Each dim may be an
    image-axis column (see the module docstring).
    """

    channels: int
    height: int | None = None
    width: int | None = None

    def __post_init__(self) -> None:
        if anywhere(self.channels <= 0):
            raise ValueError(f"channels must be positive, got {self.channels}")
        if (self.height is None) != (self.width is None):
            raise ValueError("height and width must both be set or both be None")
        if self.height is not None:
            if anywhere(self.height <= 0) or (
                self.width is not self.height and anywhere(self.width <= 0)
            ):
                raise ValueError(
                    f"spatial dims must be positive, got {self.height}x{self.width}"
                )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TensorShape):
            return NotImplemented
        return (
            same_dim(self.channels, other.channels)
            and same_dim(self.height, other.height)
            and same_dim(self.width, other.width)
        )

    @property
    def is_spatial(self) -> bool:
        """True for feature maps, False for flat (post-``Flatten``) vectors."""
        return self.height is not None

    @cached_property
    def numel(self) -> int:
        """Number of scalar elements per sample."""
        if self.height is None:
            return self.channels
        return self.channels * self.height * self.width

    @property
    def nbytes(self) -> int:
        """Size in bytes per sample at float32 precision."""
        return self.numel * FLOAT32_BYTES

    def flattened(self) -> "TensorShape":
        """Collapse spatial dimensions into the channel dimension."""
        return TensorShape(self.numel)

    def at(self, i: int) -> "TensorShape":
        """This shape at image ``i`` of its axis, with plain ``int`` dims."""
        return TensorShape(
            at_image(self.channels, i),
            at_image(self.height, i),
            at_image(self.width, i),
        )

    def __str__(self) -> str:
        if self.height is None:
            return f"({self.channels})"
        return f"({self.channels}, {self.height}, {self.width})"


def conv_output_hw(
    in_size: int, kernel: int, stride: int, padding: int, dilation: int = 1
) -> int:
    """Output spatial extent of a convolution/pooling window.

    Standard PyTorch floor-mode formula.
    """
    effective = dilation * (kernel - 1) + 1
    out = (in_size + 2 * padding - effective) // stride + 1
    if anywhere(out <= 0):
        raise ValueError(
            f"window (k={kernel}, s={stride}, p={padding}, d={dilation}) "
            f"does not fit input of size {in_size}"
        )
    return out


def pool_output_hw_ceil(in_size: int, kernel: int, stride: int, padding: int) -> int:
    """Output size for ceil-mode pooling (used by some torchvision models)."""
    # Integer ceil division: -(-a // s) == ceil(a / s), exactly.
    out = -((kernel - in_size - 2 * padding) // stride) + 1
    # PyTorch clips windows that start entirely inside the padding.
    out = out - ((out - 1) * stride >= in_size + padding)
    if anywhere(out <= 0):
        raise ValueError(
            f"ceil-mode window (k={kernel}, s={stride}, p={padding}) "
            f"does not fit input of size {in_size}"
        )
    return out
