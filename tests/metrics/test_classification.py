"""Unit tests for label-based classification metrics."""

import numpy as np
import pytest

from repro.metrics import (accuracy, balanced_accuracy, confusion_matrix,
                           precision_recall_f1, sensitivity_specificity)


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0

    def test_all_wrong(self):
        assert accuracy([0, 1], [1, 0]) == 0.0

    def test_fractional(self):
        assert accuracy([0, 1, 1, 1], [0, 1, 0, 0]) == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="differ in length"):
            accuracy([0, 1], [0])

    def test_negative_labels_raise(self):
        with pytest.raises(ValueError, match="non-negative"):
            accuracy([0, -1], [0, 1])

    def test_accepts_2d_inputs_by_ravel(self):
        assert accuracy(np.array([[0, 1]]), np.array([[0, 1]])) == 1.0


class TestConfusionMatrix:
    def test_binary_counts(self):
        y_true = [0, 0, 1, 1, 1]
        y_pred = [0, 1, 1, 1, 0]
        m = confusion_matrix(y_true, y_pred)
        assert m.tolist() == [[1, 1], [1, 2]]

    def test_total_equals_samples(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 200)
        y_pred = rng.integers(0, 4, 200)
        assert confusion_matrix(y_true, y_pred).sum() == 200

    def test_diagonal_is_correct_predictions(self):
        y = [0, 1, 2, 2, 1]
        m = confusion_matrix(y, y)
        assert np.all(m == np.diag([1, 2, 2]))

    def test_explicit_num_classes_pads(self):
        m = confusion_matrix([0, 0], [0, 0], num_classes=3)
        assert m.shape == (3, 3)
        assert m[0, 0] == 2 and m.sum() == 2

    def test_label_exceeding_num_classes_raises(self):
        with pytest.raises(ValueError, match="exceed"):
            confusion_matrix([0, 5], [0, 1], num_classes=2)

    def test_row_sums_are_class_support(self):
        y_true = [0, 0, 0, 1]
        y_pred = [1, 1, 0, 0]
        m = confusion_matrix(y_true, y_pred)
        assert m.sum(axis=1).tolist() == [3, 1]


class TestBalancedAccuracy:
    def test_equals_accuracy_when_balanced_and_symmetric(self):
        y_true = [0, 0, 1, 1]
        y_pred = [0, 1, 1, 0]
        assert balanced_accuracy(y_true, y_pred) == pytest.approx(
            accuracy(y_true, y_pred))

    def test_majority_guessing_scores_half(self):
        # 90% negatives; predicting all-negative gets 90% raw accuracy
        # but only 50% balanced accuracy.
        y_true = [0] * 9 + [1]
        y_pred = [0] * 10
        assert accuracy(y_true, y_pred) == pytest.approx(0.9)
        assert balanced_accuracy(y_true, y_pred) == pytest.approx(0.5)

    def test_absent_class_excluded(self):
        # num_classes=3 but class 2 never appears in y_true.
        assert balanced_accuracy([0, 1], [0, 1], num_classes=3) == 1.0


class TestPrecisionRecallF1:
    def test_perfect(self):
        p, r, f1 = precision_recall_f1([0, 1, 1], [0, 1, 1])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_known_values(self):
        # tp=2, fp=1, fn=1
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        p, r, f1 = precision_recall_f1(y_true, y_pred)
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(2 / 3)
        assert f1 == pytest.approx(2 / 3)

    def test_no_positive_predictions(self):
        p, r, f1 = precision_recall_f1([1, 0], [0, 0])
        assert p == 1.0
        assert r == 0.0
        assert f1 == 0.0

    def test_no_positive_samples(self):
        p, r, _ = precision_recall_f1([0, 0], [1, 0])
        assert r == 1.0
        assert p == 0.0

    def test_alternate_positive_class(self):
        y_true = [0, 0, 1]
        y_pred = [0, 1, 1]
        p0, r0, _ = precision_recall_f1(y_true, y_pred, positive_class=0)
        assert p0 == 1.0
        assert r0 == pytest.approx(0.5)


class TestSensitivitySpecificity:
    def test_clinical_interpretation(self):
        # 3 inversions, 2 caught; 2 normals, 1 falsely flagged.
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        sens, spec = sensitivity_specificity(y_true, y_pred)
        assert sens == pytest.approx(2 / 3)
        assert spec == pytest.approx(1 / 2)

    def test_degenerate_no_positives(self):
        sens, spec = sensitivity_specificity([0, 0], [0, 0])
        assert sens == 1.0 and spec == 1.0

    def test_degenerate_no_negatives(self):
        sens, spec = sensitivity_specificity([1, 1], [1, 0])
        assert spec == 1.0
        assert sens == pytest.approx(0.5)


LABEL_METRICS = {
    "confusion_matrix": confusion_matrix,
    "balanced_accuracy": balanced_accuracy,
    "precision_recall_f1": precision_recall_f1,
    "sensitivity_specificity": sensitivity_specificity,
}


class TestLabelValidation:
    """Every metric rejects the label arrays ``accuracy`` rejects."""

    @pytest.mark.parametrize("name", sorted(LABEL_METRICS))
    def test_empty_raises(self, name):
        with pytest.raises(ValueError, match="empty"):
            LABEL_METRICS[name]([], [])

    @pytest.mark.parametrize("name", sorted(LABEL_METRICS))
    def test_length_mismatch_raises(self, name):
        with pytest.raises(ValueError, match="length"):
            LABEL_METRICS[name]([0, 1, 1], [0, 1])

    @pytest.mark.parametrize("name", sorted(LABEL_METRICS))
    def test_negative_labels_raise(self, name):
        with pytest.raises(ValueError, match="non-negative"):
            LABEL_METRICS[name]([0, -1], [0, 1])
