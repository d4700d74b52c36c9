"""Digital filtering and spectral features for biomedical time-signals.

The paper's only preprocessing is per-channel standardization (§III-A), but
real EEG/ECG front-ends filter before the network sees anything: powerline
notch and drift removal.  This module provides that front-end so the
examples can run a realistic acquisition pipeline, and a band-power feature
so the generators' spectral structure can be verified in tests.

All filters operate on arrays shaped ``(..., time)`` — the trailing axis is
time, matching the ``(trials, channels, samples)`` layout of
:mod:`repro.data.eeg` / :mod:`repro.data.ecg`.

``scipy.signal`` (about 1 s and 77 MB on first import) is imported inside
the functions that call it, so importing :mod:`repro.data` stays cheap.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "notch_filter",
    "remove_baseline_wander",
    "band_power",
    "EEG_BANDS",
]

# Conventional EEG frequency bands (Hz).
EEG_BANDS: dict[str, tuple[float, float]] = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "mu": (8.0, 12.0),
    "beta": (12.0, 30.0),
    "gamma": (30.0, 70.0),
}


def _validate_rate(sample_rate_hz: float) -> float:
    if sample_rate_hz <= 0:
        raise ValueError(f"sample rate must be positive, got {sample_rate_hz}")
    return float(sample_rate_hz)


def notch_filter(data: np.ndarray, notch_hz: float, sample_rate_hz: float,
                 quality: float = 30.0) -> np.ndarray:
    """Zero-phase IIR notch (e.g. 50/60 Hz powerline) along the last axis."""
    sample_rate_hz = _validate_rate(sample_rate_hz)
    if not 0 < notch_hz < sample_rate_hz / 2:
        raise ValueError(
            f"notch frequency {notch_hz} outside (0, Nyquist)")
    from scipy import signal as sp_signal
    b, a = sp_signal.iirnotch(notch_hz, quality, fs=sample_rate_hz)
    return sp_signal.filtfilt(b, a, np.asarray(data, dtype=float), axis=-1)


def remove_baseline_wander(data: np.ndarray, sample_rate_hz: float,
                           cutoff_hz: float = 0.5) -> np.ndarray:
    """Suppress slow drift (respiration / electrode movement) below
    ``cutoff_hz`` with a zero-phase high-pass — the standard ECG baseline-
    wander correction."""
    sample_rate_hz = _validate_rate(sample_rate_hz)
    if not 0 < cutoff_hz < sample_rate_hz / 2:
        raise ValueError(f"cutoff {cutoff_hz} outside (0, Nyquist)")
    from scipy import signal as sp_signal
    sos = sp_signal.butter(2, cutoff_hz, btype="highpass",
                           fs=sample_rate_hz, output="sos")
    return sp_signal.sosfiltfilt(sos, np.asarray(data, dtype=float), axis=-1)


def band_power(data: np.ndarray, low_hz: float, high_hz: float,
               sample_rate_hz: float) -> np.ndarray:
    """Integrated power in ``[low_hz, high_hz]`` per signal.

    Integrates the Welch power spectral density over the band along the last
    axis; returns an array with the time axis reduced away.  Integrated (not
    mean) PSD makes powers additive over disjoint bands.  This is the
    feature the EEG task's discriminative structure lives in (mu-band
    desynchronization).
    """
    sample_rate_hz = _validate_rate(sample_rate_hz)
    data = np.asarray(data, dtype=float)
    if not 0 <= low_hz < high_hz <= sample_rate_hz / 2:
        raise ValueError(
            f"band [{low_hz}, {high_hz}] outside [0, Nyquist]")
    nperseg = min(data.shape[-1], int(2 * sample_rate_hz))
    from scipy import signal as sp_signal
    freqs, psd = sp_signal.welch(data, fs=sample_rate_hz, nperseg=nperseg,
                                 axis=-1)
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    if mask.sum() < 2:
        raise ValueError("band too narrow for the spectral resolution")
    return np.trapezoid(psd[..., mask], freqs[mask], axis=-1)
