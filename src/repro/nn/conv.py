"""Convolution layers (1-D temporal, 2-D, and depthwise-separable).

The paper's three networks use:

* ``Conv1d`` — ECG model (Table II), 1-D temporal convolutions over 12-lead
  signals, and the EEG model's per-electrode temporal convolution.
* ``Conv2d`` — the EEG model's spatial convolution across electrodes
  (Table I) and standard convolutions of MobileNet V1.
* ``DepthwiseConv2d`` followed by a 1x1 ``Conv2d`` — the
  depthwise-separable blocks that define MobileNet V1 (Howard et al., 2017,
  ref. [8] of the paper).

All forward/backward passes are lowered to GEMMs via im2col/col2im.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, col2im_1d, col2im_2d, im2col_1d, im2col_2d
from repro.tensor.im2col import conv_output_length

__all__ = ["Conv1d", "Conv2d", "DepthwiseConv2d"]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv1d_op(x: Tensor, weight: Tensor, bias: Tensor | None,
              stride: int, padding: int) -> Tensor:
    """Differentiable 1-D cross-correlation of ``(N, C_in, L)`` inputs.

    ``weight`` has shape ``(C_out, C_in, K)``.  Implemented as a standalone
    function so the binarized layers can reuse it with sign-STE weights.
    """
    n, c_in, length = x.shape
    c_out, c_in_w, kernel = weight.shape
    if c_in_w != c_in:
        raise ValueError(f"weight expects {c_in_w} input channels, got {c_in}")
    cols = im2col_1d(x.data, kernel, stride, padding)   # (N, L_out, C*K)
    w_mat = weight.data.reshape(c_out, c_in * kernel)
    out = cols @ w_mat.T                                # (N, L_out, C_out)
    if bias is not None:
        out = out + bias.data
    out = np.ascontiguousarray(out.transpose(0, 2, 1))  # (N, C_out, L_out)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        g = grad.transpose(0, 2, 1)                     # (N, L_out, C_out)
        g2 = g.reshape(-1, c_out)
        grad_w = (g2.T @ cols.reshape(-1, c_in * kernel)).reshape(weight.shape)
        grad_cols = g @ w_mat                           # (N, L_out, C*K)
        grad_x = col2im_1d(grad_cols, (n, c_in, length), kernel, stride, padding)
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(g2.sum(axis=0))
        return tuple(grads)

    return Tensor.from_op(out, parents, backward)


def conv2d_op(x: Tensor, weight: Tensor, bias: Tensor | None,
              stride: tuple[int, int], padding: tuple[int, int]) -> Tensor:
    """Differentiable 2-D cross-correlation of ``(N, C_in, H, W)`` inputs.

    ``weight`` has shape ``(C_out, C_in, KH, KW)``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in_w != c_in:
        raise ValueError(f"weight expects {c_in_w} input channels, got {c_in}")
    sh, sw = stride
    ph, pw = padding
    h_out = conv_output_length(h, kh, sh, ph)
    w_out = conv_output_length(w, kw, sw, pw)
    cols = im2col_2d(x.data, (kh, kw), (sh, sw), (ph, pw))
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    out = cols @ w_mat.T                                # (N, HW_out, C_out)
    if bias is not None:
        out = out + bias.data
    out = np.ascontiguousarray(
        out.transpose(0, 2, 1).reshape(n, c_out, h_out, w_out))

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        g = grad.reshape(n, c_out, h_out * w_out).transpose(0, 2, 1)
        g2 = g.reshape(-1, c_out)
        grad_w = (g2.T @ cols.reshape(-1, c_in * kh * kw)).reshape(weight.shape)
        grad_cols = g @ w_mat
        grad_x = col2im_2d(grad_cols, (n, c_in, h, w), (kh, kw), (sh, sw),
                           (ph, pw))
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(g2.sum(axis=0))
        return tuple(grads)

    return Tensor.from_op(out, parents, backward)


def depthwise_conv2d_op(x: Tensor, weight: Tensor, bias: Tensor | None,
                        stride: tuple[int, int],
                        padding: tuple[int, int]) -> Tensor:
    """Depthwise 2-D convolution: one ``(KH, KW)`` filter per input channel.

    ``weight`` has shape ``(C, KH, KW)``; channel ``c`` of the output only
    sees channel ``c`` of the input.  Uses an einsum over strided windows,
    avoiding the per-channel Python loop a grouped im2col would need.
    """
    n, c, h, w = x.shape
    c_w, kh, kw = weight.shape
    if c_w != c:
        raise ValueError(f"weight expects {c_w} channels, got {c}")
    sh, sw = stride
    ph, pw = padding
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) \
        if (ph or pw) else x.data
    h_out = conv_output_length(h, kh, sh, ph)
    w_out = conv_output_length(w, kw, sw, pw)
    s0, s1, s2, s3 = x_pad.strides
    windows = np.lib.stride_tricks.as_strided(
        x_pad, shape=(n, c, h_out, w_out, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3), writeable=False)
    out = np.einsum("nchwij,cij->nchw", windows, weight.data, optimize=True)
    if bias is not None:
        out = out + bias.data[None, :, None, None]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        grad_w = np.einsum("nchwij,nchw->cij", windows, grad, optimize=True)
        grad_x_pad = np.zeros_like(x_pad)
        # Scatter-add each kernel tap's contribution back onto the input.
        for i in range(kh):
            for j in range(kw):
                grad_x_pad[:, :, i:i + h_out * sh:sh, j:j + w_out * sw:sw] += \
                    grad * weight.data[None, :, i, j, None, None]
        grad_x = grad_x_pad[:, :, ph:ph + h, pw:pw + w] if (ph or pw) \
            else grad_x_pad
        grads = [grad_x, grad_w]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)))
        return tuple(grads)

    return Tensor.from_op(out, parents, backward)


class Conv1d(Module):
    """1-D convolution layer over ``(N, C_in, L)`` inputs (paper Eq. 2)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        fan_in = in_channels * kernel_size
        self.weight = Parameter(init.he_normal(
            (out_channels, in_channels, kernel_size), fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv1d_op(x, self.weight, self.bias, self.stride, self.padding)

    def output_length(self, length: int) -> int:
        return conv_output_length(length, self.kernel_size, self.stride,
                                  self.padding)

    def __repr__(self) -> str:
        return (f"Conv1d({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class Conv2d(Module):
    """2-D convolution layer over ``(N, C_in, H, W)`` inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        fan_in = in_channels * kh * kw
        self.weight = Parameter(init.he_normal(
            (out_channels, in_channels, kh, kw), fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d_op(x, self.weight, self.bias, self.stride, self.padding)

    def output_shape(self, h: int, w: int) -> tuple[int, int]:
        return (conv_output_length(h, self.kernel_size[0], self.stride[0],
                                   self.padding[0]),
                conv_output_length(w, self.kernel_size[1], self.stride[1],
                                   self.padding[1]))

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}->{self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class DepthwiseConv2d(Module):
    """Per-channel spatial convolution, first half of a separable block."""

    def __init__(self, channels: int, kernel_size, stride=1, padding=0,
                 bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.channels = channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        self.weight = Parameter(init.he_normal(
            (channels, kh, kw), kh * kw, rng))
        self.bias = Parameter(np.zeros(channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return depthwise_conv2d_op(x, self.weight, self.bias, self.stride,
                                   self.padding)

    def __repr__(self) -> str:
        return (f"DepthwiseConv2d({self.channels}, k={self.kernel_size}, "
                f"s={self.stride}, p={self.padding})")
