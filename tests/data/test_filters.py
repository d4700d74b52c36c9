"""Tests for the signal-processing front-end (repro.data.filters)."""

import numpy as np
import pytest

from repro.data import (EEG_BANDS, band_power, make_eeg_dataset,
                        notch_filter, remove_baseline_wander)
from repro.data.eeg import EEGConfig, motor_channel_groups


def sine(freq_hz: float, rate_hz: float, seconds: float = 4.0,
         amplitude: float = 1.0) -> np.ndarray:
    t = np.arange(int(seconds * rate_hz)) / rate_hz
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


class TestNotch:
    def test_kills_powerline(self):
        x = sine(50.0, 250.0, seconds=8.0)
        y = notch_filter(x, 50.0, 250.0)
        core = slice(400, -400)  # exclude filter edge transients
        assert np.std(y[core]) < 0.05 * np.std(x[core])

    def test_preserves_neighbours(self):
        x = sine(10.0, 250.0)
        y = notch_filter(x, 50.0, 250.0)
        assert np.std(y) == pytest.approx(np.std(x), rel=0.05)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="Nyquist"):
            notch_filter(np.zeros(100), 200.0, 250.0)

    @pytest.mark.parametrize("mains_hz", (50.0, 60.0))
    def test_kills_either_mains_frequency_under_an_ecg_band_tone(
            self, mains_hz):
        tone = sine(15.0, 500.0, seconds=8.0)
        y = notch_filter(tone + sine(mains_hz, 500.0, seconds=8.0),
                         mains_hz, 500.0)
        core = slice(800, -800)
        assert np.std(y[core] - tone[core]) < 0.05 * np.std(tone[core])

    def test_applies_along_last_axis(self):
        x = np.stack([sine(50.0, 250.0, seconds=8.0),
                      sine(10.0, 250.0, seconds=8.0)])
        y = notch_filter(x, 50.0, 250.0)
        assert y.shape == x.shape
        assert np.allclose(y[1], notch_filter(x[1], 50.0, 250.0))

    @pytest.mark.parametrize("rate", (0.0, -250.0))
    def test_nonpositive_rate_raises(self, rate):
        with pytest.raises(ValueError, match="sample rate"):
            notch_filter(np.zeros(100), 50.0, rate)


class TestBaselineWander:
    def test_removes_drift_keeps_qrs_band(self):
        rate = 250.0
        drift = sine(0.2, rate, seconds=16.0, amplitude=5.0)
        qrs_like = sine(12.0, rate, seconds=16.0, amplitude=1.0)
        y = remove_baseline_wander(drift + qrs_like, rate)
        core = slice(500, -500)
        assert np.std(y[core] - qrs_like[core]) < 0.15 * np.std(qrs_like)

    def test_zero_mean_output(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=2000) + 3.0
        y = remove_baseline_wander(x, 250.0)
        assert abs(np.mean(y)) < 0.05


class TestBandPower:
    def test_concentrated_in_tone_band(self):
        x = sine(10.0, 160.0, seconds=8.0)
        p_mu = band_power(x, 8.0, 12.0, 160.0)
        p_beta = band_power(x, 13.0, 30.0, 160.0)
        assert p_mu > 100 * p_beta

    def test_scales_quadratically_with_amplitude(self):
        x1 = sine(10.0, 160.0, seconds=8.0, amplitude=1.0)
        x2 = sine(10.0, 160.0, seconds=8.0, amplitude=2.0)
        ratio = band_power(x2, 8.0, 12.0, 160.0) / band_power(
            x1, 8.0, 12.0, 160.0)
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_batch_shape_reduced(self):
        x = np.zeros((5, 3, 800))
        p = band_power(x, 8.0, 12.0, 160.0)
        assert p.shape == (5, 3)

    def test_bad_band_raises(self):
        with pytest.raises(ValueError, match="Nyquist"):
            band_power(np.zeros(800), 8.0, 200.0, 160.0)

    def test_eeg_bands_table_is_contiguous(self):
        bands = list(EEG_BANDS.values())
        for (_, hi), (lo, _) in zip(bands, bands[1:]):
            assert hi == lo


class TestOnSyntheticEEG:
    """The generator's documented mu-desynchronization must be measurable
    with the spectral tools — ties the two modules together."""

    def test_mu_erd_detectable_via_band_power(self):
        cfg = EEGConfig(n_trials=64, n_subjects=6, seed=3)
        ds = make_eeg_dataset(cfg)
        inputs, labels = ds.inputs, ds.labels
        left, right = motor_channel_groups(inputs.shape[1])
        mu = band_power(inputs, 8.0, 12.0, cfg.sample_rate)
        # Lateralization index: positive when left hemisphere has more mu
        # power than right. Imagining the LEFT hand desynchronizes the RIGHT
        # hemisphere, so the sign should separate the classes on average.
        lat = mu[:, list(left)].mean(axis=1) - mu[:, list(right)].mean(axis=1)
        class0 = lat[labels == 0].mean()
        class1 = lat[labels == 1].mean()
        assert class0 != pytest.approx(class1, rel=0.01)
        # A threshold on the lateralization index should beat chance clearly.
        threshold = np.median(lat)
        pred = (lat > threshold).astype(int)
        acc = max(np.mean(pred == labels), np.mean(pred != labels))
        assert acc > 0.6
