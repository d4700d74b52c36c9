"""Loss function."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss(Module):
    """Softmax cross-entropy over integer class labels.

    Combines log-softmax and negative log-likelihood, matching the "softmax
    layer necessary only for training" of the paper's models (§III-A).
    """

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        targets = np.asarray(targets)
        if targets.ndim != 1:
            raise ValueError(f"targets must be 1-D class ids, got {targets.shape}")
        n = logits.shape[0]
        log_probs = logits.log_softmax(axis=-1)
        picked = log_probs[np.arange(n), targets]
        return -picked.mean()

    def __repr__(self) -> str:
        return "CrossEntropyLoss()"
