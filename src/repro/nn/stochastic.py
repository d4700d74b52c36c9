"""Stochastic input binarization (paper ref. [14], Hirtzlin et al. 2019).

The paper notes (§I) that "beyond weight and activation, the memory
footprint can also be reduced with binary representation of the inputs
using stochastic sampling", citing the authors' companion work.  The idea:
an analog input ``x`` in [-1, 1] is encoded as a stream of ±1 samples with
``P(+1) = (1 + x) / 2``; averaging XNOR-popcount results over the stream
recovers the analog dot product to any desired precision, so even the first
network layer can run on the binary fabric without ADCs.

This module provides that encoder.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stochastic_bits"]


def stochastic_bits(values: np.ndarray, n_samples: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Encode analog values as ``n_samples`` Bernoulli bit planes.

    ``values`` are clipped to [-1, 1]; the result has shape
    ``(n_samples,) + values.shape`` with ``P(bit=1) = (1 + x) / 2``, so the
    empirical mean of ``2*bit - 1`` converges to ``clip(x, -1, 1)`` at rate
    ``1/sqrt(n_samples)``.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    clipped = np.clip(np.asarray(values, dtype=float), -1.0, 1.0)
    probability = (1.0 + clipped) / 2.0
    draws = rng.random((n_samples,) + clipped.shape)
    return (draws < probability).astype(np.uint8)
