"""Classification metrics for medical signal tasks.

The paper reports plain accuracy, but its motivating applications (stroke
and heart-attack prevention, seizure prediction, electrode-inversion
screening) are diagnostic: what matters clinically is the *kind* of error,
not just the rate.  This package supplies the standard diagnostic metrics —
confusion matrices, sensitivity/specificity, ROC curves and their AUC —
so the example applications and benches can report them alongside the
paper's accuracy numbers.

All functions are pure numpy and operate on integer label arrays (and, for
ranking metrics, real-valued scores), independent of the training stack.
"""

from repro.metrics.classification import (
    accuracy,
    balanced_accuracy,
    confusion_matrix,
    precision_recall_f1,
    sensitivity_specificity,
)
from repro.metrics.ranking import roc_auc, roc_curve
from repro.metrics.report import (ClassificationReport, LatencySummary,
                                  classification_report, latency_summary,
                                  percentiles)

__all__ = [
    "accuracy",
    "balanced_accuracy",
    "confusion_matrix",
    "precision_recall_f1",
    "sensitivity_specificity",
    "roc_curve",
    "roc_auc",
    "ClassificationReport",
    "classification_report",
    "LatencySummary",
    "latency_summary",
    "percentiles",
]
