"""K-fold cross-validation.

The paper evaluates both medical tasks with five-fold cross-validation
("the dataset is partitioned into five non-overlapping validation subsets
not seen during the training", §III-A), repeated five times with fresh
models.  :func:`stratified_kfold_indices` produces the partition and keeps
class balance inside each fold.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stratified_kfold_indices"]


def stratified_kfold_indices(labels: np.ndarray, k: int,
                             rng: np.random.Generator | None = None
                             ) -> list[tuple[np.ndarray, np.ndarray]]:
    """K-fold with per-class proportional allocation to every fold."""
    labels = np.asarray(labels)
    n = len(labels)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    fold_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if rng is not None:
            rng.shuffle(members)
        for i, chunk in enumerate(np.array_split(members, k)):
            fold_members[i].append(chunk)
    folds = [np.concatenate(parts) for parts in fold_members]
    splits = []
    for i in range(k):
        val = np.sort(folds[i])
        train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        splits.append((train, val))
    return splits
