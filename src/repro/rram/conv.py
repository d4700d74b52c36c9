"""In-memory execution of binarized *convolutional* layers.

The paper's Fig. 5 architecture targets fully connected layers, and notes
that "this type of architecture can be adapted for convolutional layers,
with a key decision between minimizing data movement and data reuse"
(§II-B, citing ISAAC/PRIME-style accelerators).  This module implements the
weight-stationary adaptation so the *all-binarized* EEG/ECG networks can be
executed on the simulated RRAM fabric end to end:

* a binary convolution is lowered to a dense XNOR-popcount: each output
  channel's flattened kernel is one word line; the input data controller
  streams receptive-field bit vectors (im2col order) onto the XNOR inputs;
* batch-norm + sign folds into a per-channel popcount threshold exactly as
  in the dense case — the threshold is shared by every spatial position of
  a channel;
* pooling and flattening stay in the digital periphery (they are cheap bit
  operations), as in the reference architectures.

Restrictions mirror the hardware: inputs must already be binary (so the
first convolution of a network, which sees analog signals, stays in the
digital front-end — standard BNN practice) and padding must be zero,
because a padded position has no ±1 encoding.  The paper's ECG network has
no conv padding, so its four inner convolutions deploy directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.binary import threshold_bits, to_bits, xnor_popcount
from repro.nn.conv import Conv1d
from repro.nn.norm import _BatchNorm
from repro.rram.accelerator import _single_batch
from repro.tensor.im2col import conv_output_length

__all__ = ["FoldedBinaryConv1d", "fold_conv1d_batchnorm_sign",
           "InMemoryConv1dLayer", "max_pool_bits_1d"]


@dataclass
class FoldedBinaryConv1d:
    """A binary 1-D convolution + batch-norm + sign folded for hardware.

    ``weight_bits``: ``(C_out, C_in * K)`` — one flattened kernel per
    output channel.  ``theta``/``gamma_sign``/``beta_sign`` are per output
    channel, shared over time positions.
    """

    weight_bits: np.ndarray
    in_channels: int
    kernel_size: int
    stride: int
    theta: np.ndarray
    gamma_sign: np.ndarray
    beta_sign: np.ndarray

    @property
    def out_channels(self) -> int:
        return self.weight_bits.shape[0]

    @property
    def fan_in(self) -> int:
        return self.in_channels * self.kernel_size

    def output_length(self, length: int) -> int:
        return conv_output_length(length, self.kernel_size, self.stride)

    def _patches(self, x_bits: np.ndarray) -> np.ndarray:
        """im2col over bit activations: ``(N, C, L)`` -> ``(N*L_out, C*K)``."""
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        if x_bits.ndim != 3 or x_bits.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, L) bits, got "
                f"{x_bits.shape}")
        n, c, length = x_bits.shape
        l_out = self.output_length(length)
        sn, sc, sl = x_bits.strides
        windows = np.lib.stride_tricks.as_strided(
            x_bits, shape=(n, c, l_out, self.kernel_size),
            strides=(sn, sc, sl * self.stride, sl), writeable=False)
        return windows.transpose(0, 2, 1, 3).reshape(
            n * l_out, c * self.kernel_size)

    def _threshold(self, dot: np.ndarray) -> np.ndarray:
        return threshold_bits(dot, self.theta[None, :],
                              self.gamma_sign[None, :],
                              self.beta_sign[None, :])

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """Exact integer inference: ``(N, C_in, L)`` bits ->
        ``(N, C_out, L_out)`` bits."""
        n, _, length = np.asarray(x_bits).shape
        l_out = self.output_length(length)
        patches = self._patches(x_bits)
        pc = xnor_popcount(patches, self.weight_bits)
        dot = 2 * pc - self.fan_in
        out = self._threshold(dot)
        return out.reshape(n, l_out, self.out_channels).transpose(0, 2, 1)


def fold_conv1d_batchnorm_sign(conv, bn: _BatchNorm) -> FoldedBinaryConv1d:
    """Fold ``sign(BN(conv_b(x)))`` into a popcount-threshold conv.

    ``conv`` may be a :class:`~repro.nn.BinaryConv1d` (weights binarized by
    sign) or a plain :class:`~repro.nn.Conv1d` whose weights are already
    ±1.  Padding must be zero — padded positions have no binary encoding on
    the XNOR fabric.
    """
    if conv.padding != 0:
        raise ValueError("only padding=0 convolutions map onto the binary "
                         f"fabric, got padding={conv.padding}")
    if isinstance(conv, Conv1d) and getattr(conv, "bias", None) is not None:
        raise ValueError("convolution bias is not representable; use "
                         "batch-norm for offsets")
    weights = conv.weight.data
    c_out, c_in, kernel = weights.shape
    theta = bn.effective_threshold()
    gamma_sign = np.sign(bn.gamma.data)
    beta_sign = np.where(np.sign(bn.beta.data) == 0, 1.0,
                         np.sign(bn.beta.data))
    return FoldedBinaryConv1d(
        weight_bits=to_bits(weights).reshape(c_out, c_in * kernel),
        in_channels=c_in,
        kernel_size=kernel,
        stride=conv.stride,
        theta=theta,
        gamma_sign=gamma_sign,
        beta_sign=beta_sign,
    )


class InMemoryConv1dLayer:
    """A folded binary convolution read from noisy RRAM tiles.

    Weight-stationary mapping: kernels live in the arrays; the input data
    controller scans receptive fields (one XNOR-read burst per field) and
    the shared popcount/threshold logic emits the output channel bits.

    ``controller`` (built by the ``rram`` or ``sharded`` backend) holds
    the flattened kernels on noisy devices; the im2col patch batches
    flow through its ``popcounts_trials`` unchanged.
    """

    def __init__(self, folded: FoldedBinaryConv1d, controller):
        self.folded = folded
        self.controller = controller

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """One read from the controller's own stream: ``(N, C, L)`` bits
        in, ``(N, C_out, L_out)`` out — a one-trial
        :meth:`forward_bits_trials` call."""
        return self.forward_bits_trials(
            _single_batch(x_bits, 3), [self.controller.rng])[0]

    def forward_bits_trials(self, x_bits: np.ndarray, rngs,
                            sense=None) -> np.ndarray:
        """Trial-batched conv: ``(N, C, L)`` or ``(T, N, C, L)`` bits in,
        ``(T, N, C_out, L_out)`` out; trial ``t`` reads with ``rngs[t]``
        (bit-identical to a per-trial :meth:`forward_bits` loop)."""
        f = self.folded
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        shared = x_bits.ndim == 3
        if not shared and x_bits.shape[0] != len(rngs):
            raise ValueError(
                f"{x_bits.shape[0]} trial slices for {len(rngs)} streams")
        n, _, length = x_bits.shape if shared else x_bits.shape[1:]
        l_out = f.output_length(length)
        patches = f._patches(x_bits) if shared else np.stack(
            [f._patches(x_bits[t]) for t in range(len(rngs))])
        pc = self.controller.popcounts_trials(patches, rngs, sense=sense)
        out = f._threshold(2 * pc - f.fan_in)
        return out.reshape(len(rngs), n, l_out, f.out_channels) \
            .transpose(0, 1, 3, 2)


def max_pool_bits_1d(bits: np.ndarray, kernel: int,
                     stride: int | None = None) -> np.ndarray:
    """Max-pooling on activation bits (digital periphery).

    On ±1 activations max-pool is a logical OR over the window's bits —
    a handful of gates per output, which is why pooling stays outside the
    arrays.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 3:
        raise ValueError(f"expected (N, C, L) bits, got {bits.shape}")
    stride = stride or kernel
    # One elementwise max per tap: a reduction over the short window axis
    # runs ~30x slower.
    span = stride * ((bits.shape[2] - kernel) // stride) + 1
    out = bits[:, :, :span:stride].copy()
    for k in range(1, kernel):
        np.maximum(out, bits[:, :, k:k + span:stride], out=out)
    return out
