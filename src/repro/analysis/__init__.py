"""Memory-footprint and quantization analysis (paper Table IV)."""

from repro.analysis.memory import MemoryBreakdown, model_memory, format_bytes
from repro.analysis.quantization import quantize_array, quantize_model_weights
from repro.analysis.lifetime import (interpolate_accuracy,
                                     accuracy_vs_cycles, usable_cycles)

__all__ = [
    "MemoryBreakdown", "model_memory", "format_bytes",
    "quantize_array", "quantize_model_weights",
    "interpolate_accuracy", "accuracy_vs_cycles", "usable_cycles",
]
