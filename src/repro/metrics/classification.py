"""Label-based classification metrics.

All metrics accept integer label arrays.  ``num_classes`` is inferred from
the data when not given; pass it explicitly when a class may be absent from
a small evaluation fold (common with the paper's 5-fold protocol on the
~1000-trial ECG dataset).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "balanced_accuracy",
    "confusion_matrix",
    "precision_recall_f1",
    "sensitivity_specificity",
]


def _validate_labels(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.int64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.int64).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"label arrays differ in length: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot compute metrics on empty label arrays")
    if y_true.min() < 0 or y_pred.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return y_true, y_pred


def accuracy(y_true, y_pred) -> float:
    """Fraction of exactly matching predictions."""
    y_true, y_pred = _validate_labels(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true, y_pred, num_classes: int | None = None
                     ) -> np.ndarray:
    """``C[i, j]`` = number of samples with true class ``i`` predicted ``j``."""
    y_true, y_pred = _validate_labels(y_true, y_pred)
    if num_classes is None:
        num_classes = int(max(y_true.max(), y_pred.max())) + 1
    if y_true.max() >= num_classes or y_pred.max() >= num_classes:
        raise ValueError("labels exceed num_classes")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def balanced_accuracy(y_true, y_pred, num_classes: int | None = None
                      ) -> float:
    """Mean per-class recall — robust to class imbalance.

    Classes absent from ``y_true`` are excluded from the mean.
    """
    matrix = confusion_matrix(y_true, y_pred, num_classes)
    support = matrix.sum(axis=1)
    present = support > 0
    recall = np.zeros(len(matrix))
    recall[present] = np.diag(matrix)[present] / support[present]
    return float(recall[present].mean())


def precision_recall_f1(y_true, y_pred, positive_class: int = 1
                        ) -> tuple[float, float, float]:
    """Binary precision / recall / F1 for the given positive class.

    Conventions for degenerate folds: precision is 1.0 when nothing was
    predicted positive (no false alarms), recall is 1.0 when there are no
    positive samples (nothing missed); F1 is their harmonic mean, 0.0 when
    both are 0.
    """
    y_true, y_pred = _validate_labels(y_true, y_pred)
    pos_true = y_true == positive_class
    pos_pred = y_pred == positive_class
    tp = float(np.sum(pos_true & pos_pred))
    fp = float(np.sum(~pos_true & pos_pred))
    fn = float(np.sum(pos_true & ~pos_pred))
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def sensitivity_specificity(y_true, y_pred, positive_class: int = 1
                            ) -> tuple[float, float]:
    """The clinical pair: sensitivity (recall of positives) and specificity
    (recall of negatives).

    For electrode-inversion screening, sensitivity is the fraction of
    swapped-lead recordings caught; specificity is the fraction of correct
    recordings not flagged.
    """
    y_true, y_pred = _validate_labels(y_true, y_pred)
    pos = y_true == positive_class
    neg = ~pos
    sensitivity = (float(np.mean(y_pred[pos] == positive_class))
                   if pos.any() else 1.0)
    specificity = (float(np.mean(y_pred[neg] != positive_class))
                   if neg.any() else 1.0)
    return sensitivity, specificity
