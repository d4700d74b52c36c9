"""Data augmentation.

The paper's only augmentation is "small amplitude noise added to each
training sample" (§III-A).
"""

from __future__ import annotations

import numpy as np

__all__ = ["GaussianNoiseAugment"]


class GaussianNoiseAugment:
    """Additive Gaussian noise data augmentation for training batches."""

    def __init__(self, sigma: float = 0.05,
                 rng: np.random.Generator | None = None):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = sigma
        self.rng = rng or np.random.default_rng()

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        if self.sigma == 0:
            return batch
        batch = np.asarray(batch)
        noise = self.rng.normal(0.0, self.sigma, size=batch.shape)
        if np.issubdtype(batch.dtype, np.floating):
            # Sample in float64 (one draw per element, reproducible per
            # seed regardless of input precision) but return the batch's
            # own dtype: augmentation must never upcast float32 training
            # data to float64.
            noise = noise.astype(batch.dtype, copy=False)
        return batch + noise
