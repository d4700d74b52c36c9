"""RRAM read-noise injection for hardware-in-the-loop BNN training.

The Monte-Carlo engine models each XNOR sense decision as a comparison of
the 2T2R differential margin (in ln-resistance units) against a Gaussian
sense-amplifier offset: the stored bit flips whenever ``offset > margin``
(:mod:`repro.rram.array`).  Under the robustness-sweep convention —
device variability zeroed, only :class:`~repro.rram.SenseParameters.
offset_sigma` varies — every cell carries the same margin
``ln(median_hrs / median_lrs) = ln(20)``, so each of the ``fan_in`` bits
feeding a pre-threshold accumulation flips independently with

    p = Phi(-margin / sigma)

A flipped bit moves the ±1 dot product by ∓2, so over ``fan_in`` bits the
noisy dot is (by the central limit theorem)

    dot' ~ (1 - 2p) * dot + N(0, (2 * sqrt(fan_in * p * (1 - p)))^2)

This module injects exactly that surrogate into the training forward
pass: fresh offsets per scan (every forward call redraws, like the
hardware), identity in eval mode, and a straight-through backward — the
gradient ignores the noise, so the latent weights learn *through* the
perturbation.  Training with it is how the paper's models stay accurate
at sense sigmas where cleanly trained weights degrade (§II-B).

No :mod:`repro.rram` import happens at module load (``rram`` imports
``nn``); the default margin is the constant the default
:class:`~repro.rram.DeviceParameters` imply, asserted by tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor

__all__ = ["DEFAULT_LN_MARGIN", "flip_probability", "rram_read_noise",
           "set_read_noise"]

# ln(median_hrs / median_lrs) of the default 2T2R cell (1e5 / 5e3) with
# device variability zeroed — the margin every sense decision compares its
# Gaussian offset against under the robustness-sweep convention.
DEFAULT_LN_MARGIN = math.log(20.0)


def flip_probability(sigma: float, margin: float = DEFAULT_LN_MARGIN
                     ) -> float:
    """Per-bit sense-decision flip probability ``Phi(-margin / sigma)``.

    ``sigma`` is the sense-amplifier offset sigma in ln-resistance units
    (the :class:`~repro.rram.SenseParameters.offset_sigma` axis of the
    Fig. 4-style sweeps); ``sigma <= 0`` reads perfectly.
    """
    if sigma <= 0.0:
        return 0.0
    return 0.5 * math.erfc(margin / (float(sigma) * math.sqrt(2.0)))


def rram_read_noise(x: Tensor, fan_in: int, sigma: float,
                    rng: np.random.Generator,
                    margin: float = DEFAULT_LN_MARGIN) -> Tensor:
    """Perturb a binarized pre-threshold accumulation like a noisy read.

    ``x`` holds ±1 dot products over ``fan_in`` XNOR bits.  Forward
    applies the CLT surrogate of per-bit flips (see module docstring);
    backward is straight-through (identity), the same STE convention as
    :meth:`~repro.tensor.Tensor.sign_ste` — noise shapes the loss
    landscape, not the gradient path.
    """
    p = flip_probability(sigma, margin)
    if p <= 0.0:
        return x
    std = 2.0 * math.sqrt(fan_in * p * (1.0 - p))
    offsets = rng.normal(0.0, std, size=x.shape)
    out_data = (1.0 - 2.0 * p) * x.data + offsets

    def backward(grad):
        return (grad,)

    return Tensor._make(out_data, (x,), backward)


def set_read_noise(model: Module, sigma: float,
                   rng: np.random.Generator | None = None,
                   margin: float = DEFAULT_LN_MARGIN,
                   layer_names: tuple[str, ...] | None = None) -> int:
    """Arm the read-noise knob on every binary layer of ``model``.

    Sets ``noise_sigma`` / ``noise_rng`` / ``noise_margin`` on each
    ``Binary*`` layer (all of them, or only those whose qualified module
    name is in ``layer_names``).  All armed layers share ``rng``, so a
    training run is deterministic given the generator's seed.  Returns
    the number of layers armed; ``sigma = 0`` disarms.
    """
    from repro.nn.binary import (BinaryConv1d, BinaryConv2d,
                                 BinaryDepthwiseConv2d, BinaryLinear)

    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    rng = rng or np.random.default_rng()
    binary_types = (BinaryLinear, BinaryConv1d, BinaryConv2d,
                    BinaryDepthwiseConv2d)
    armed = 0
    for name, module in model.named_modules():
        if not isinstance(module, binary_types):
            continue
        if layer_names is not None and name not in layer_names:
            continue
        module.noise_sigma = float(sigma)
        module.noise_rng = rng
        module.noise_margin = float(margin)
        armed += 1
    if layer_names is not None and armed < len(layer_names):
        known = [name for name, m in model.named_modules()
                 if isinstance(m, binary_types)]
        missing = sorted(set(layer_names) - set(known))
        raise ValueError(f"no binary layer named {missing}; "
                         f"binary layers: {known}")
    return armed
