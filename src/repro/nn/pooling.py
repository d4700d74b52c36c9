"""Pooling layers.

The EEG model (Table I) uses an *overlapping* average pool (kernel 30,
stride 15) and the ECG model (Table II) non-overlapping max pools (kernel 2,
stride 2), so both layers support arbitrary stride, including stride smaller
than the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, col2im_1d
from repro.tensor.im2col import conv_output_length

__all__ = ["MaxPool1d", "AvgPool1d", "GlobalAvgPool2d"]


def _windows_1d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    n, c, length = x.shape
    l_out = (length - kernel) // stride + 1
    sn, sc, sl = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, c, l_out, kernel), strides=(sn, sc, sl * stride, sl),
        writeable=False)


class MaxPool1d(Module):
    """Max pooling over the trailing (time) axis of ``(N, C, L)``."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size

    def forward(self, x: Tensor) -> Tensor:
        n, c, length = x.shape
        k, s = self.kernel_size, self.stride
        windows = _windows_1d(x.data, k, s)
        l_out = windows.shape[2]
        arg = windows.argmax(axis=-1)                    # (N, C, L_out)
        out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
        starts = np.arange(l_out) * s
        positions = starts[None, None, :] + arg          # absolute indices

        def backward(grad):
            grad_x = np.zeros((n * c, length), dtype=grad.dtype)
            rows = np.repeat(np.arange(n * c), l_out)
            np.add.at(grad_x, (rows, positions.reshape(-1)), grad.reshape(-1))
            return (grad_x.reshape(n, c, length),)

        return Tensor.from_op(out, [x], backward)

    def output_length(self, length: int) -> int:
        return conv_output_length(length, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool1d(k={self.kernel_size}, s={self.stride})"


class AvgPool1d(Module):
    """Average pooling over the trailing axis; supports overlapping windows."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = int(kernel_size)
        self.stride = int(stride) if stride is not None else self.kernel_size

    def forward(self, x: Tensor) -> Tensor:
        n, c, length = x.shape
        k, s = self.kernel_size, self.stride
        windows = _windows_1d(x.data, k, s)
        out = windows.mean(axis=-1)
        l_out = out.shape[-1]

        def backward(grad):
            # Each input position receives grad/k from every window covering
            # it; col2im_1d performs exactly that scatter-add.
            grad_windows = np.broadcast_to(
                grad[..., None] / k, (n, c, l_out, k))
            cols = grad_windows.transpose(0, 2, 1, 3).reshape(n, l_out, c * k)
            return (col2im_1d(cols, (n, c, length), k, s),)

        return Tensor.from_op(out, [x], backward)

    def output_length(self, length: int) -> int:
        return conv_output_length(length, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool1d(k={self.kernel_size}, s={self.stride})"


class GlobalAvgPool2d(Module):
    """Spatial global average, producing ``(N, C)`` — MobileNet's final pool."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"
