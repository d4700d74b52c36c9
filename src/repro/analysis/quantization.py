"""Post-training uniform quantization.

The paper repeatedly uses an "eight-bit quantized network" as the stronger
reference point for its memory savings (§I, §III-C: 8-bit quantization "is
particularly successful in applications, as it usually requires no
retraining").  This module provides that reference: symmetric per-tensor
uniform quantization of trained weights, so benches can report accuracy and
size of the 8-bit model alongside the 32-bit and binarized ones.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["quantize_array", "quantize_model_weights"]


def quantize_array(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """Symmetric uniform quantize-dequantize of an array.

    Maps to integers in ``[-(2^(b-1) - 1), 2^(b-1) - 1]`` with a per-tensor
    scale, then back to floats — the standard post-training scheme.
    """
    if bits < 2:
        raise ValueError("use the binarization layers for 1-bit weights")
    values = np.asarray(values, dtype=float)
    q_max = 2 ** (bits - 1) - 1
    scale = np.abs(values).max()
    if scale == 0:
        return values.copy()
    quantized = np.clip(np.round(values / scale * q_max), -q_max, q_max)
    return quantized * scale / q_max


def quantize_model_weights(model: Module, bits: int = 8) -> Module:
    """Quantize every parameter of a model in place; returns the model.

    Batch-norm parameters are left untouched (they fold into thresholds /
    scales at deployment and are few).
    """
    for name, param in model.named_parameters():
        if "gamma" in name or "beta" in name:
            continue
        param.data = quantize_array(param.data, bits)
    return model
