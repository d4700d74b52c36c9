"""HfO2 resistive-memory device model.

The paper's test chip integrates hafnium-oxide RRAM in the BEOL of a 130 nm
CMOS process (§II-B, Fig. 2).  The reproduction cannot ship a die, so this
module provides the standard statistical abstraction used by device-aware
simulators: programmed resistances are log-normally distributed around
state-dependent medians, and repeated program/erase cycling both broadens
the distributions and drifts the high-resistance state downward — the two
effects behind the rising bit-error-rate curves of Fig. 4.

Two access paths are provided:

* vectorized sampling (:meth:`DeviceParameters.sample_resistance`) — used by
  :class:`repro.rram.array.RRAMArray` to program thousands of devices at
  once.
* analytic bit-error rates (:func:`analytic_ber_1t1r`,
  :func:`analytic_ber_2t2r`) — closed-form Gaussian-tail expressions used to
  cross-check the Monte-Carlo harness and overlay Fig. 4.

Calibration targets (see ``EXPERIMENTS.md``): the 1T1R error rate rises from
~1e-4 at 1e8 cycles to ~1e-2 at 7e8 cycles, with the 2T2R curve about two
orders of magnitude lower, matching Fig. 4's measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DeviceParameters", "analytic_ber_1t1r", "analytic_ber_2t2r"]


@dataclass
class DeviceParameters:
    """Statistical device model.

    Resistances are log-normal: ``ln R ~ N(mu_state(c), sigma_state(c))``
    where ``c`` is the number of program cycles the device has seen.

    * ``sigma_*(c) = sigma_*0 * (1 + broadening * log10(max(c, c0) / c0))``
      — cycle-to-cycle variability grows with wear;
    * ``mu_hrs(c) = ln(median_hrs) - hrs_drift * log10(max(c, c0) / c0)``
      — the HRS window closes as the oxide degrades (LRS is stable).

    ``device_mismatch`` scales sigma for the complementary (BLb) device of a
    2T2R pair, modelling device-to-device asymmetry — this is why Fig. 4
    shows two distinct 1T1R curves.
    """

    median_lrs: float = 5e3          # ohms
    median_hrs: float = 1e5          # ohms
    sigma_lrs0: float = 0.40         # ln-units at the reference cycle count
    sigma_hrs0: float = 0.40
    broadening: float = 0.55         # sigma growth per decade of cycling
    hrs_drift: float = 0.00          # ln-units of HRS median loss per decade
    reference_cycles: float = 1e8    # cycle count where sigma = sigma0
    device_mismatch: float = 1.12    # BLb sigma multiplier
    reference_spread: float = 0.18   # 1T1R reference imprecision (ln-units)

    def _decades(self, cycles: float | np.ndarray) -> np.ndarray:
        cycles = np.maximum(np.asarray(cycles, dtype=float),
                            self.reference_cycles)
        return np.log10(cycles / self.reference_cycles)

    def sigma_lrs(self, cycles: float | np.ndarray) -> np.ndarray:
        return self.sigma_lrs0 * (1.0 + self.broadening * self._decades(cycles))

    def sigma_hrs(self, cycles: float | np.ndarray) -> np.ndarray:
        return self.sigma_hrs0 * (1.0 + self.broadening * self._decades(cycles))

    def mu_lrs(self, cycles: float | np.ndarray) -> np.ndarray:
        return np.full_like(self._decades(cycles), math.log(self.median_lrs))

    def mu_hrs(self, cycles: float | np.ndarray) -> np.ndarray:
        return math.log(self.median_hrs) - self.hrs_drift * self._decades(cycles)

    @property
    def reference_resistance(self) -> float:
        """1T1R read reference: geometric mean of the fresh medians."""
        return math.sqrt(self.median_lrs * self.median_hrs)

    def sample_resistance(self, state: np.ndarray, cycles: float | np.ndarray,
                          rng: np.random.Generator,
                          mismatch: float = 1.0) -> np.ndarray:
        """Draw programmed resistances for an array of devices.

        ``state``: boolean array, True = LRS.  ``mismatch`` scales sigma
        (use ``device_mismatch`` for the BLb device of a pair).
        """
        state = np.asarray(state, dtype=bool)
        mu = np.where(state, self.mu_lrs(cycles), self.mu_hrs(cycles))
        sigma = mismatch * np.where(state, self.sigma_lrs(cycles),
                                    self.sigma_hrs(cycles))
        return np.exp(rng.normal(mu, sigma))


def _retention_terms(retention, hours):
    """HRS mean loss, LRS mean gain and drift spread after ``hours`` of
    storage under a :class:`~repro.rram.reliability.RetentionModel`;
    exact zeros without one, so the endurance-only BER is unchanged."""
    if retention is None:
        if np.any(np.asarray(hours) != 0):
            raise ValueError("hours of storage need a retention model")
        return 0.0, 0.0, 0.0
    return (retention.hrs_shift(hours), retention.lrs_shift(hours),
            retention.extra_sigma(hours))


def analytic_ber_1t1r(params: DeviceParameters, cycles: float | np.ndarray,
                      mismatch: float = 1.0,
                      sense_offset_sigma: float = 0.15,
                      retention=None,
                      hours: float | np.ndarray = 0.0) -> np.ndarray:
    """Closed-form single-device bit error rate.

    A 1T1R read compares the device resistance to the fixed reference; an
    error occurs when the log-normal tail crosses it.  Errors from the HRS
    and LRS sides are averaged (states are equiprobable when storing
    weights).  The decision noise combines device variability, sense
    amplifier offset, and reference imprecision in quadrature.

    With a ``retention`` model the BER is the one after ``hours`` of
    storage: the HRS mean moves toward the reference while the spread
    grows, so the Gaussian tail past the reference swells with log-time.
    """
    hrs_shift, lrs_shift, drift_sigma = _retention_terms(retention, hours)
    ln_ref = math.log(params.reference_resistance)
    extra = (sense_offset_sigma ** 2 + params.reference_spread ** 2
             + drift_sigma ** 2)
    s_hrs = np.sqrt((mismatch * params.sigma_hrs(cycles)) ** 2 + extra)
    s_lrs = np.sqrt((mismatch * params.sigma_lrs(cycles)) ** 2 + extra)
    z_hrs = (params.mu_hrs(cycles) - hrs_shift - ln_ref) / s_hrs
    z_lrs = (ln_ref - (params.mu_lrs(cycles) + lrs_shift)) / s_lrs
    # Imported here so that loading a plan never imports scipy.
    from scipy.stats import norm
    return 0.5 * (norm.sf(z_hrs) + norm.sf(z_lrs))


def analytic_ber_2t2r(params: DeviceParameters, cycles: float | np.ndarray,
                      sense_offset_sigma: float = 0.15,
                      retention=None,
                      hours: float | np.ndarray = 0.0) -> np.ndarray:
    """Closed-form differential-pair bit error rate.

    A 2T2R read errs only when the HRS device of the pair appears *less*
    resistive than the LRS device (plus precharge-sense-amplifier offset,
    expressed in ln-resistance units).  The decision margin is the full
    LRS-to-HRS window instead of half of it, which is what buys the ~two
    orders of magnitude of Fig. 4.

    With a ``retention`` model the BER is the one after ``hours`` of
    storage: state-dependent drift closes the window from both sides and
    the random component adds for both devices, but the differential
    margin is twice the single-ended one, so the absolute BER remains far
    lower than 1T1R at any storage time.
    """
    hrs_shift, lrs_shift, drift_sigma = _retention_terms(retention, hours)
    mu_gap = (params.mu_hrs(cycles) - hrs_shift) \
        - (params.mu_lrs(cycles) + lrs_shift)
    sigma = np.sqrt(
        params.sigma_hrs(cycles) ** 2
        + (params.device_mismatch * params.sigma_lrs(cycles)) ** 2
        + 2 * drift_sigma ** 2
        + sense_offset_sigma ** 2)
    from scipy.stats import norm
    return norm.sf(mu_gap / sigma)
