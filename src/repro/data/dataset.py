"""Dataset containers."""

from __future__ import annotations

import numpy as np

__all__ = ["Dataset", "ArrayDataset"]


class Dataset:
    """Minimal dataset protocol: ``__len__`` and ``__getitem__``."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int):
        raise NotImplementedError


class ArrayDataset(Dataset):
    """In-memory dataset of ``(inputs, labels)`` numpy arrays."""

    def __init__(self, inputs: np.ndarray, labels: np.ndarray):
        inputs = np.asarray(inputs)
        labels = np.asarray(labels)
        if len(inputs) != len(labels):
            raise ValueError(
                f"inputs ({len(inputs)}) and labels ({len(labels)}) disagree")
        self.inputs = inputs
        self.labels = labels

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index):
        return self.inputs[index], self.labels[index]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1
