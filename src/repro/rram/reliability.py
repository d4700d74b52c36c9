"""Retention drift and chip-to-chip yield analysis.

Two reliability axes the paper's companion measurements (refs. [15], [16])
cover and a deployed medical device cares about:

* **Retention** — after programming, the high-resistance state of HfO2 RRAM
  relaxes over time (filament re-growth): ``ln R`` walks toward the read
  reference with a log-time drift plus a random component.  A weight that
  was correct at program time can therefore flip months later, *without*
  any further cycling.  The drift is state-dependent (HRS down, LRS up),
  so it closes the differential window too — but the 2T2R read starts from
  the full LRS-to-HRS margin and its absolute error rate stays well below
  the single-ended one throughout the storage life.
* **Yield** — chips differ: per-die median resistances shift with process
  corners.  A design is only viable if the BER stays inside the BNN's
  tolerance across the die population, not just on the characterized chip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.rram.device import DeviceParameters

__all__ = ["RetentionModel", "LifetimeConfig", "arrhenius_acceleration",
           "equivalent_hours", "YieldAnalysis", "YieldResult"]

# Boltzmann constant in eV/K, for the Arrhenius law.
_K_BOLTZMANN_EV = 8.617333262e-5


def arrhenius_acceleration(temp_c: float, reference_temp_c: float = 125.0,
                           activation_energy_ev: float = 1.1) -> float:
    """Arrhenius acceleration factor of retention loss at ``temp_c``
    relative to the model's calibration temperature.

    Retention qualification bakes devices at high temperature and maps the
    result to operating life through ``AF = exp(Ea/k * (1/T_use - 1/T_ref))``
    — the standard JEDEC methodology.  ``Ea ≈ 1.1 eV`` is the published
    range for HfO2 filament dissolution; the default reference is the
    125 °C bake the :class:`RetentionModel` constants are calibrated to.

    Returns the factor by which time at ``temp_c`` is *slower* than at the
    reference (``> 1`` below the reference temperature).
    """
    if temp_c <= -273.15 or reference_temp_c <= -273.15:
        raise ValueError("temperatures must be above absolute zero")
    if activation_energy_ev <= 0:
        raise ValueError(
            f"activation energy must be positive, got {activation_energy_ev}")
    t_use = temp_c + 273.15
    t_ref = reference_temp_c + 273.15
    return math.exp(activation_energy_ev / _K_BOLTZMANN_EV
                    * (1.0 / t_use - 1.0 / t_ref))


def equivalent_hours(hours_at_temp: float | np.ndarray, temp_c: float,
                     reference_temp_c: float = 125.0,
                     activation_energy_ev: float = 1.1) -> np.ndarray:
    """Convert storage time at ``temp_c`` to bake-equivalent hours.

    Feed the result as ``hours`` to
    :func:`~repro.rram.device.analytic_ber_1t1r` / ``_2t2r`` together
    with a :class:`RetentionModel` (whose constants are bake-calibrated)
    to predict BER after field storage at body or room temperature —
    e.g. ten years at 37 °C maps to only a fraction of an hour of 125 °C
    bake.
    """
    factor = arrhenius_acceleration(temp_c, reference_temp_c,
                                    activation_energy_ev)
    return np.asarray(hours_at_temp, dtype=float) / factor


@dataclass
class RetentionModel:
    """Log-time resistance relaxation.

    After ``t`` hours at operating temperature the HRS mean drops by
    ``hrs_drift_per_decade`` ln-units per decade of time and gains random
    spread ``drift_sigma_per_decade``; the (metallic-filament) LRS is
    comparatively stable, with a small upward drift.  Values are in the
    range published for HfO2 devices at 125 C bake-equivalent conditions.
    """

    hrs_drift_per_decade: float = 0.15
    lrs_drift_per_decade: float = 0.03
    drift_sigma_per_decade: float = 0.08
    reference_hours: float = 1.0

    def _decades(self, hours: float | np.ndarray) -> np.ndarray:
        hours = np.maximum(np.asarray(hours, dtype=float),
                           self.reference_hours)
        return np.log10(hours / self.reference_hours)

    def hrs_shift(self, hours: float | np.ndarray) -> np.ndarray:
        """Mean ln-resistance *loss* of the HRS after ``hours``."""
        return self.hrs_drift_per_decade * self._decades(hours)

    def lrs_shift(self, hours: float | np.ndarray) -> np.ndarray:
        """Mean ln-resistance *gain* of the LRS after ``hours``."""
        return self.lrs_drift_per_decade * self._decades(hours)

    def extra_sigma(self, hours: float | np.ndarray) -> np.ndarray:
        return self.drift_sigma_per_decade * self._decades(hours)

    def apply(self, resistances: np.ndarray, is_lrs: np.ndarray,
              hours: float, rng: np.random.Generator) -> np.ndarray:
        """Drift a population of programmed resistances by ``hours``."""
        resistances = np.asarray(resistances, dtype=float)
        is_lrs = np.asarray(is_lrs, dtype=bool)
        shift = np.where(is_lrs, self.lrs_shift(hours),
                         -self.hrs_shift(hours))
        noise = rng.normal(0.0, self.extra_sigma(hours),
                           size=resistances.shape)
        return np.exp(np.log(resistances) + shift + noise)


@dataclass(frozen=True)
class LifetimeConfig:
    """A deployment point in storage time and temperature.

    ``hours`` of field storage at ``temp_c`` are mapped through the
    Arrhenius law onto the bake-equivalent hours the
    :class:`RetentionModel` constants are calibrated to, and the
    resulting drift is applied to programmed device state at program
    time (see :meth:`repro.rram.array.RRAMArray.age`).  ``hours=0`` is
    the fresh chip — inactive, guaranteed to change nothing.
    """

    hours: float = 0.0
    temp_c: float = 37.0
    retention: RetentionModel = field(default_factory=RetentionModel)
    reference_temp_c: float = 125.0
    activation_energy_ev: float = 1.1

    def __post_init__(self):
        if self.hours < 0:
            raise ValueError(f"hours must be >= 0, got {self.hours}")

    @classmethod
    def years(cls, years: float, temp_c: float = 37.0,
              **kwargs) -> "LifetimeConfig":
        """``years`` of field storage at ``temp_c`` (8760 h per year)."""
        return cls(hours=float(years) * 8760.0, temp_c=temp_c, **kwargs)

    @property
    def active(self) -> bool:
        return self.hours > 0

    def bake_hours(self) -> float:
        """Bake-equivalent hours to feed the retention model."""
        return float(equivalent_hours(self.hours, self.temp_c,
                                      self.reference_temp_c,
                                      self.activation_energy_ev))


@dataclass
class YieldResult:
    """Outcome of a die-population yield study."""

    ber_per_chip: np.ndarray
    ber_limit: float

    @property
    def yield_fraction(self) -> float:
        return float(np.mean(self.ber_per_chip <= self.ber_limit))

    @property
    def worst_chip_ber(self) -> float:
        return float(self.ber_per_chip.max())


@dataclass
class YieldAnalysis:
    """Monte-Carlo over process corners.

    Each simulated die gets its own median-resistance multipliers (drawn
    log-normally with ``die_sigma``), then its analytic BER is evaluated.
    ``ber_limit`` defaults to 1e-3, well inside the fault-injection
    tolerance of the BNN classifiers (ablation XTRA2).
    """

    params: DeviceParameters
    die_sigma: float = 0.10
    n_chips: int = 1000
    ber_limit: float = 1e-3
    seed: int = 0

    def run(self, cycles: float = 1e8, mode: str = "2T2R") -> YieldResult:
        from repro.rram.device import analytic_ber_1t1r, analytic_ber_2t2r
        rng = np.random.default_rng(self.seed)
        factors = np.exp(rng.normal(0.0, self.die_sigma, (self.n_chips, 2)))
        bers = np.empty(self.n_chips)
        base = self.params
        for i, (f_lrs, f_hrs) in enumerate(factors):
            die = DeviceParameters(
                median_lrs=base.median_lrs * f_lrs,
                median_hrs=base.median_hrs * f_hrs,
                sigma_lrs0=base.sigma_lrs0, sigma_hrs0=base.sigma_hrs0,
                broadening=base.broadening, hrs_drift=base.hrs_drift,
                reference_cycles=base.reference_cycles,
                device_mismatch=base.device_mismatch,
                reference_spread=base.reference_spread)
            if mode == "2T2R":
                bers[i] = float(analytic_ber_2t2r(die, cycles))
            elif mode == "1T1R":
                bers[i] = float(analytic_ber_1t1r(die, cycles))
            else:
                raise ValueError(f"unknown mode {mode!r}")
        return YieldResult(ber_per_chip=bers, ber_limit=self.ber_limit)
