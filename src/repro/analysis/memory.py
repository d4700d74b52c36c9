"""Model memory accounting (paper Table IV).

The paper compares, per model:

* total and classifier-only parameter counts;
* model size at 32-bit and 8-bit weight precision;
* the fraction of memory saved by binarizing *only the classifier*,
  against both the 32-bit and the 8-bit reference.

The saving formulas follow directly from the paper's worked example for the
EEG model (0.31 M parameters, 64 % saving vs 32-bit, 57.8 % vs 8-bit):

    saving_b = 1 - (feat * b + cls * 1) / (total * b)

for a reference precision of ``b`` bits — i.e. convolutional weights keep
``b`` bits while classifier weights drop to one.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MemoryBreakdown", "model_memory", "format_bytes"]


def format_bytes(n_bytes: float) -> str:
    """Human formatting matching the paper's MB/KB style."""
    if n_bytes >= 1024 ** 2:
        return f"{n_bytes / 1024 ** 2:.2f}MB"
    return f"{n_bytes / 1024:.0f}KB"


@dataclass
class MemoryBreakdown:
    """Memory accounting for one model (one row of Table IV).

    ``binary_classifier_params`` covers the MobileNet case where the
    binarized classifier is a *replacement* of different size (two layers,
    5.7 M binary weights) rather than a binarization of the original one;
    when ``None`` the original classifier is binarized in place (the EEG
    and ECG rows).
    """

    name: str
    feature_params: int
    classifier_params: int
    binary_classifier_params: int | None = None

    @property
    def total_params(self) -> int:
        return self.feature_params + self.classifier_params

    @property
    def effective_binary_classifier_params(self) -> int:
        if self.binary_classifier_params is not None:
            return self.binary_classifier_params
        return self.classifier_params

    def size_bytes(self, bits: int = 32) -> float:
        """Model size with every weight at ``bits`` precision."""
        return self.total_params * bits / 8.0

    def binarized_classifier_bytes(self, feature_bits: int = 32) -> float:
        """Size with real-precision features and a 1-bit classifier."""
        return (self.feature_params * feature_bits
                + self.effective_binary_classifier_params) / 8.0

    def classifier_binarization_saving(self, reference_bits: int = 32
                                       ) -> float:
        """Fraction of memory saved by binarizing only the classifier,
        relative to a model stored entirely at ``reference_bits``."""
        full = self.size_bytes(reference_bits)
        mixed = self.binarized_classifier_bytes(reference_bits)
        return 1.0 - mixed / full

    def classifier_fraction(self) -> float:
        return self.classifier_params / self.total_params

    def table_row(self) -> tuple[str, ...]:
        """(model, total, classifier, size 32/8-bit, saving 32/8-bit)."""
        return (
            self.name,
            f"{self.total_params / 1e6:.2f}M",
            f"{self.classifier_params / 1e6:.2f}M",
            f"{format_bytes(self.size_bytes(32))} / "
            f"{format_bytes(self.size_bytes(8))}",
            f"{100 * self.classifier_binarization_saving(32):.1f}% / "
            f"{100 * self.classifier_binarization_saving(8):.1f}%",
        )


def model_memory(name: str, model,
                 binary_classifier_params: int | None = None
                 ) -> MemoryBreakdown:
    """Build a breakdown from any model exposing ``feature_parameters`` /
    ``classifier_parameters`` (all three paper models do).

    Pass ``binary_classifier_params`` when the binarized classifier is a
    replacement of different size (MobileNet's two-layer 5.7 M-bit one).
    """
    return MemoryBreakdown(name, model.feature_parameters(),
                           model.classifier_parameters(),
                           binary_classifier_params=binary_classifier_params)
