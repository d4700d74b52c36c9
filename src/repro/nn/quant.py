"""Multi-bit quantization: the integer deployment kernel.

The paper uses an "eight-bit quantized network" as its stronger reference
point throughout (§I: 8-bit quantization "usually requires no retraining";
Table IV's 8-bit column; §III-C's "if we assume that convolutional layers can
be quantized to eight-bits precision").  Post-training quantization of
trained weights lives in :mod:`repro.analysis.quantization`; this module
supplies the deployment side:

* :func:`quant_scale` — the symmetric per-tensor scale (one LSB in real
  units);
* :class:`IntegerDense` / :func:`deploy_dense_int` — the integer-arithmetic
  kernel an 8-bit edge accelerator executes (the multi-bit analogue of the
  XNOR-popcount pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.linear import Linear

__all__ = [
    "quant_scale",
    "IntegerDense",
    "deploy_dense_int",
]


def _check_bits(bits: int) -> int:
    bits = int(bits)
    if not 2 <= bits <= 16:
        raise ValueError(
            f"bits must be in [2, 16] (use repro.nn.binary for 1-bit), "
            f"got {bits}")
    return bits


def quant_scale(values: np.ndarray, bits: int) -> float:
    """Symmetric per-tensor scale: one LSB in real units.

    The integer grid is ``[-(2^(b-1) - 1), 2^(b-1) - 1]``; the scale maps
    the largest magnitude onto the grid edge.  Returns 1.0 for an all-zero
    tensor so callers never divide by zero.
    """
    bits = _check_bits(bits)
    q_max = 2 ** (bits - 1) - 1
    peak = float(np.abs(np.asarray(values)).max()) if np.asarray(
        values).size else 0.0
    if peak == 0.0:
        return 1.0
    return peak / q_max


@dataclass
class IntegerDense:
    """A dense layer lowered to pure integer arithmetic.

    ``y = (W_q @ x_q) * (w_scale * x_scale) + bias`` with ``W_q``/``x_q``
    int-valued and the accumulation in int64 — what an 8-bit MAC array
    computes.  The float multiply at the end models the output requantizer /
    dequantizer stage.
    """

    weight_q: np.ndarray     # (out, in) integer grid values
    w_scale: float
    x_scale: float
    bits: int
    bias: np.ndarray | None  # (out,) float, applied after dequantization

    @property
    def in_features(self) -> int:
        return self.weight_q.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight_q.shape[0]

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Input-side quantizer (the ADC/requantizer in front of the MACs)."""
        q_max = 2 ** (self.bits - 1) - 1
        return np.clip(np.round(np.asarray(x, dtype=float) / self.x_scale),
                       -q_max, q_max).astype(np.int64)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Quantize input, integer matmul, dequantize, add bias."""
        x_q = self.quantize_input(x)
        acc = x_q @ self.weight_q.T.astype(np.int64)
        out = acc * (self.w_scale * self.x_scale)
        if self.bias is not None:
            out = out + self.bias[None, :]
        return out


def deploy_dense_int(layer: Linear, x_scale: float,
                     bits: int = 8) -> IntegerDense:
    """Lower a trained dense layer to the integer kernel.

    ``x_scale`` is the input quantization scale; derive it from
    calibration data with :func:`quant_scale`.
    """
    bits = _check_bits(bits)
    if x_scale <= 0:
        raise ValueError(f"x_scale must be positive, got {x_scale}")
    q_max = 2 ** (bits - 1) - 1
    w_scale = quant_scale(layer.weight.data, bits)
    weight_q = np.clip(np.round(layer.weight.data / w_scale),
                       -q_max, q_max).astype(np.int64)
    bias = None
    if getattr(layer, "bias", None) is not None:
        bias = layer.bias.data.copy()
    return IntegerDense(weight_q=weight_q, w_scale=w_scale, x_scale=x_scale,
                        bits=bits, bias=bias)
