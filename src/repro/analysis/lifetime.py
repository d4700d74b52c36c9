"""Deployment-lifetime analysis: device wear-out vs BNN error tolerance.

Two results of this repository compose into a question the paper's system
designer actually faces: Fig. 4 gives the bit error rate as a function of
programming cycles, and the fault-injection study (XTRA2) gives classifier
accuracy as a function of bit error rate.  Composing them answers *how many
write cycles a deployed chip survives* before accuracy degrades — with and
without the 2T2R differential read.

:func:`accuracy_vs_cycles` performs the composition; :func:`usable_cycles`
inverts it against an accuracy budget.  Both accept any monotone
``ber_of_cycles`` callable, so the same analysis runs on endurance
(:func:`repro.rram.analytic_ber_1t1r` / ``_2t2r``) or retention (the
same functions with a ``retention`` model, via a lambda over storage
time).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["interpolate_accuracy", "accuracy_vs_cycles", "usable_cycles"]


def interpolate_accuracy(ber_grid: np.ndarray, accuracy_grid: np.ndarray
                         ) -> Callable[[np.ndarray], np.ndarray]:
    """Build ``accuracy(ber)`` from fault-injection measurements.

    Interpolation is linear in ``log10(ber)`` (accuracy degrades over
    orders of magnitude of BER, not linearly); a measurement at BER 0 (the
    clean point) anchors everything below the smallest nonzero BER.
    Outside the measured range the curve clamps to the end values.
    """
    ber_grid = np.asarray(ber_grid, dtype=float)
    accuracy_grid = np.asarray(accuracy_grid, dtype=float)
    if ber_grid.shape != accuracy_grid.shape or ber_grid.ndim != 1:
        raise ValueError("ber and accuracy grids must be equal-length 1-D")
    if ber_grid.size < 2:
        raise ValueError("need at least two fault-injection points")
    if np.any(ber_grid < 0):
        raise ValueError("bit error rates cannot be negative")
    order = np.argsort(ber_grid)
    ber_sorted = ber_grid[order]
    acc_sorted = accuracy_grid[order]
    if np.unique(ber_sorted).size != ber_sorted.size:
        raise ValueError("duplicate BER points")

    nonzero = ber_sorted > 0
    log_ber = np.log10(ber_sorted[nonzero])
    acc_nonzero = acc_sorted[nonzero]
    clean_accuracy = acc_sorted[0] if not nonzero[0] else acc_nonzero[0]

    def accuracy(ber):
        ber = np.asarray(ber, dtype=float)
        out = np.empty(ber.shape)
        tiny = ber < ber_sorted[nonzero][0]
        out[tiny] = clean_accuracy
        with np.errstate(divide="ignore"):
            out[~tiny] = np.interp(np.log10(np.maximum(ber[~tiny], 1e-300)),
                                   log_ber, acc_nonzero)
        return out

    return accuracy


def accuracy_vs_cycles(cycles: np.ndarray,
                       ber_of_cycles: Callable[[np.ndarray], np.ndarray],
                       accuracy_of_ber: Callable[[np.ndarray], np.ndarray]
                       ) -> np.ndarray:
    """Compose the device wear curve with the error-tolerance curve."""
    cycles = np.asarray(cycles, dtype=float)
    if np.any(cycles <= 0):
        raise ValueError("cycle counts must be positive")
    return accuracy_of_ber(np.asarray(ber_of_cycles(cycles), dtype=float))


def usable_cycles(accuracy_budget: float,
                  ber_of_cycles: Callable[[np.ndarray], np.ndarray],
                  accuracy_of_ber: Callable[[np.ndarray], np.ndarray],
                  cycle_range: tuple[float, float] = (1e6, 1e12),
                  resolution: int = 400) -> float:
    """Largest cycle count at which accuracy stays >= the budget.

    Scans a log grid over ``cycle_range``.  Returns ``inf`` when the budget
    holds across the whole range (the chip outlives the model), and ``0``
    when even the fresh chip misses it.
    """
    if not 0.0 < accuracy_budget <= 1.0:
        raise ValueError(
            f"accuracy budget must be in (0, 1], got {accuracy_budget}")
    lo, hi = cycle_range
    if not 0 < lo < hi:
        raise ValueError(f"bad cycle range {cycle_range}")
    grid = np.geomspace(lo, hi, resolution)
    acc = accuracy_vs_cycles(grid, ber_of_cycles, accuracy_of_ber)
    ok = acc >= accuracy_budget
    if ok.all():
        return float("inf")
    if not ok[0]:
        return 0.0
    # End of the contiguous good prefix (wear is monotone, so accuracy
    # never recovers after the first failure).
    first_bad = int(np.nonzero(~ok)[0][0])
    return float(grid[first_bad - 1])
