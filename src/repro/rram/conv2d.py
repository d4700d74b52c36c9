"""In-memory execution of binarized 2-D convolutions.

Extends the weight-stationary mapping of :mod:`repro.rram.conv` to two
spatial dimensions, which is what a *fully binarized MobileNet* (the
Table III ImageNet BNN row) needs from the fabric: each output channel's
flattened ``C_in x K_h x K_w`` kernel occupies one word-line group, the
input data controller streams im2col receptive-field bit vectors, and the
per-channel folded batch-norm threshold is shared across all spatial
positions.

Depthwise convolutions — MobileNet's signature layer — get a dedicated
folding: each channel is its own single-row array (fan-in ``K_h * K_w``),
matching how a depthwise layer would actually be laid out (tiny arrays, one
per channel, no cross-channel accumulation).

The same hardware restrictions apply as in 1-D: inputs must already be
binary and padding must be zero (a padded position has no ±1 encoding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.binary import threshold_bits, to_bits, xnor_popcount
from repro.nn.norm import _BatchNorm
from repro.rram.accelerator import _single_batch
from repro.tensor.im2col import conv_output_length

__all__ = ["FoldedBinaryConv2d", "fold_conv2d_batchnorm_sign",
           "fold_depthwise2d_batchnorm_sign", "InMemoryConv2dLayer"]


def _threshold_channels(dot: np.ndarray, theta: np.ndarray,
                        gamma_sign: np.ndarray, beta_sign: np.ndarray
                        ) -> np.ndarray:
    """Per-channel popcount threshold with batch-norm sign handling."""
    return threshold_bits(dot, theta, gamma_sign, beta_sign)


@dataclass
class FoldedBinaryConv2d:
    """A binary 2-D convolution + batch-norm + sign folded for hardware.

    ``weight_bits``: ``(C_out, C_in * K_h * K_w)``.  ``depthwise`` marks
    the grouped variant, where output channel ``c`` reads only input
    channel ``c`` (fan-in ``K_h * K_w``).
    """

    weight_bits: np.ndarray
    in_channels: int
    kernel_size: tuple[int, int]
    stride: tuple[int, int]
    theta: np.ndarray
    gamma_sign: np.ndarray
    beta_sign: np.ndarray
    depthwise: bool = False

    @property
    def out_channels(self) -> int:
        return self.weight_bits.shape[0]

    @property
    def fan_in(self) -> int:
        kh, kw = self.kernel_size
        return (1 if self.depthwise else self.in_channels) * kh * kw

    def output_shape(self, height: int, width: int) -> tuple[int, int]:
        kh, kw = self.kernel_size
        sh, sw = self.stride
        return (conv_output_length(height, kh, sh),
                conv_output_length(width, kw, sw))

    def _patches(self, x_bits: np.ndarray) -> np.ndarray:
        """im2col over bits: ``(N, C, H, W)`` -> ``(N*H_out*W_out, C*Kh*Kw)``
        (or per-channel patches for depthwise)."""
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        if x_bits.ndim != 4 or x_bits.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (N, {self.in_channels}, H, W) bits, got "
                f"{x_bits.shape}")
        n, c, height, width = x_bits.shape
        h_out, w_out = self.output_shape(height, width)
        kh, kw = self.kernel_size
        sh, sw = self.stride
        strides = x_bits.strides
        windows = np.lib.stride_tricks.as_strided(
            x_bits,
            shape=(n, c, h_out, w_out, kh, kw),
            strides=(strides[0], strides[1], strides[2] * sh,
                     strides[3] * sw, strides[2], strides[3]),
            writeable=False)
        if self.depthwise:
            # (N, C, H_out, W_out, Kh*Kw): channels stay separate.
            return windows.reshape(n, c, h_out, w_out, kh * kw)
        return windows.transpose(0, 2, 3, 1, 4, 5).reshape(
            n * h_out * w_out, c * kh * kw)

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """Exact integer inference: ``(N, C_in, H, W)`` bits ->
        ``(N, C_out, H_out, W_out)`` bits."""
        n, _, height, width = np.asarray(x_bits).shape
        h_out, w_out = self.output_shape(height, width)
        patches = self._patches(x_bits)
        if self.depthwise:
            # patches: (N, C, H_out, W_out, K); weight_bits: (C, K).
            # XNOR popcount channel-wise: count agreeing positions.
            agree = (patches
                     == self.weight_bits[None, :, None, None, :]).sum(
                axis=-1, dtype=np.int64)
            dot = 2 * agree - self.fan_in                # (N, C, Ho, Wo)
            return _threshold_channels(
                dot, self.theta[None, :, None, None],
                self.gamma_sign[None, :, None, None],
                self.beta_sign[None, :, None, None])
        pc = xnor_popcount(patches, self.weight_bits)
        dot = 2 * pc - self.fan_in
        out = _threshold_channels(dot, self.theta[None, :],
                                  self.gamma_sign[None, :],
                                  self.beta_sign[None, :])
        return out.reshape(n, h_out, w_out, self.out_channels) \
            .transpose(0, 3, 1, 2)


def _bn_fold_pieces(bn: _BatchNorm) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    theta = bn.effective_threshold()
    gamma_sign = np.sign(bn.gamma.data)
    beta_sign = np.where(np.sign(bn.beta.data) == 0, 1.0,
                         np.sign(bn.beta.data))
    return theta, gamma_sign, beta_sign


def _check_deployable(conv, kind: str) -> None:
    if conv.padding != (0, 0) and conv.padding != 0:
        raise ValueError(
            f"only padding=0 {kind} convolutions map onto the binary "
            f"fabric, got padding={conv.padding}")
    if getattr(conv, "bias", None) is not None:
        raise ValueError("convolution bias is not representable; use "
                         "batch-norm for offsets")


def fold_conv2d_batchnorm_sign(conv, bn: _BatchNorm) -> FoldedBinaryConv2d:
    """Fold ``sign(BN(conv2d_b(x)))`` into a popcount-threshold conv.

    ``conv`` may be a :class:`~repro.nn.BinaryConv2d` or a plain
    :class:`~repro.nn.Conv2d` whose weights are already ±1.
    """
    _check_deployable(conv, "2-D")
    weights = conv.weight.data
    c_out, c_in, kh, kw = weights.shape
    theta, gamma_sign, beta_sign = _bn_fold_pieces(bn)
    return FoldedBinaryConv2d(
        weight_bits=to_bits(weights).reshape(c_out, c_in * kh * kw),
        in_channels=c_in,
        kernel_size=(kh, kw),
        stride=conv.stride if isinstance(conv.stride, tuple)
        else (conv.stride, conv.stride),
        theta=theta,
        gamma_sign=gamma_sign,
        beta_sign=beta_sign,
    )


def fold_depthwise2d_batchnorm_sign(conv, bn: _BatchNorm
                                    ) -> FoldedBinaryConv2d:
    """Fold a binary *depthwise* conv + batch-norm + sign.

    ``conv`` is a :class:`~repro.nn.BinaryDepthwiseConv2d` (weights
    ``(C, K_h, K_w)``); each channel becomes its own tiny array.
    """
    _check_deployable(conv, "depthwise")
    weights = conv.weight.data
    channels, kh, kw = weights.shape
    theta, gamma_sign, beta_sign = _bn_fold_pieces(bn)
    return FoldedBinaryConv2d(
        weight_bits=to_bits(weights).reshape(channels, kh * kw),
        in_channels=channels,
        kernel_size=(kh, kw),
        stride=conv.stride if isinstance(conv.stride, tuple)
        else (conv.stride, conv.stride),
        theta=theta,
        gamma_sign=gamma_sign,
        beta_sign=beta_sign,
        depthwise=True,
    )


class InMemoryConv2dLayer:
    """A folded binary 2-D convolution read from noisy RRAM tiles.

    Weight-stationary: flattened kernels live in the arrays; receptive
    fields stream through the XNOR sense amplifiers.  Depthwise layers use
    the software popcount path per channel (their single-row arrays make
    tiling trivial and device effects negligible at K_h*K_w fan-in).

    ``controller`` (built by the ``rram`` or ``sharded`` backend) holds
    the flattened kernels on noisy devices; im2col patch batches flow
    through its ``popcounts_trials`` unchanged.
    """

    def __init__(self, folded: FoldedBinaryConv2d, controller):
        self.folded = folded
        self.controller = controller

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """One read from the controller's own stream: ``(N, C, H, W)``
        bits in, ``(N, C_out, H_out, W_out)`` out — a one-trial
        :meth:`forward_bits_trials` call."""
        return self.forward_bits_trials(
            _single_batch(x_bits, 4), [self.controller.rng])[0]

    def forward_bits_trials(self, x_bits: np.ndarray, rngs,
                            sense=None) -> np.ndarray:
        """Trial-batched conv2d: ``(N, C, H, W)`` or ``(T, N, C, H, W)``
        bits in, ``(T, N, C_out, H_out, W_out)`` out; trial ``t`` reads
        with ``rngs[t]``.  Depthwise layers are deterministic (folded
        math), so their trials coincide."""
        f = self.folded
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        shared = x_bits.ndim == 4
        n_trials = len(rngs)
        if not shared and x_bits.shape[0] != n_trials:
            raise ValueError(
                f"{x_bits.shape[0]} trial slices for {n_trials} streams")
        if f.depthwise:
            if shared:
                out = f.forward_bits(x_bits)
                return np.broadcast_to(
                    out[None], (n_trials,) + out.shape).copy()
            return np.stack([f.forward_bits(x_bits[t])
                             for t in range(n_trials)])
        n, _, height, width = x_bits.shape if shared else x_bits.shape[1:]
        h_out, w_out = f.output_shape(height, width)
        patches = f._patches(x_bits) if shared else np.stack(
            [f._patches(x_bits[t]) for t in range(n_trials)])
        pc = self.controller.popcounts_trials(patches, rngs, sense=sense)
        out = _threshold_channels(2 * pc - f.fan_in, f.theta[None, :],
                                  f.gamma_sign[None, :],
                                  f.beta_sign[None, :])
        return out.reshape(n_trials, n, h_out, w_out, f.out_channels) \
            .transpose(0, 1, 4, 2, 3)
