"""Memory accounting (Table IV) and quantization reference."""

import numpy as np
import pytest

from repro import nn
from repro.analysis import (MemoryBreakdown, format_bytes, model_memory,
                            quantize_array, quantize_model_weights)
from repro.models import ECGNet, EEGNet, MobileNetConfig, MobileNetV1
from repro.tensor import Tensor


class TestMemoryBreakdown:
    def test_eeg_row_matches_paper(self, rng):
        """Paper Table IV: EEG 0.31M params, 1.17MB/305KB, 64%/57.8%."""
        breakdown = model_memory("EEG", EEGNet(rng=rng))
        assert abs(breakdown.total_params - 0.306e6) < 0.01e6
        assert abs(breakdown.size_bytes(32) / 2 ** 20 - 1.17) < 0.02
        assert abs(breakdown.size_bytes(8) / 2 ** 10 - 305) < 10
        assert abs(breakdown.classifier_binarization_saving(32) - 0.64) < 0.01
        assert abs(breakdown.classifier_binarization_saving(8) - 0.578) < 0.01

    def test_mobilenet_row_close_to_paper(self, rng):
        """Paper: MobileNet 4.2M, 16.2MB/4.1MB, ~20%/7.3% savings, where
        the binarized classifier is the paper's two-layer 5.7M-bit
        replacement."""
        from repro.models import BinarizationMode
        real = MobileNetV1(MobileNetConfig.paper(),
                           mode=BinarizationMode.REAL, rng=rng)
        binarized = MobileNetV1(MobileNetConfig.paper(),
                                mode=BinarizationMode.BINARY_CLASSIFIER,
                                rng=rng)
        breakdown = model_memory(
            "MobileNet", real,
            binary_classifier_params=binarized.classifier_parameters())
        assert abs(breakdown.size_bytes(32) / 2 ** 20 - 16.2) < 1.0
        assert abs(breakdown.classifier_binarization_saving(32) - 0.20) < 0.03
        assert abs(breakdown.classifier_binarization_saving(8) - 0.073) < 0.05

    def test_saving_formula_sanity(self):
        b = MemoryBreakdown("toy", feature_params=0, classifier_params=100)
        # Fully classifier-dominated: saving = 1 - 1/32.
        assert np.isclose(b.classifier_binarization_saving(32), 31 / 32)

    def test_classifier_fraction(self):
        b = MemoryBreakdown("toy", 30, 70)
        assert np.isclose(b.classifier_fraction(), 0.7)

    def test_format_bytes(self):
        assert format_bytes(1.17 * 2 ** 20) == "1.17MB"
        assert format_bytes(305 * 2 ** 10) == "305KB"

    def test_table_row_strings(self, rng):
        row = model_memory("ECG", ECGNet(rng=rng)).table_row()
        assert row[0] == "ECG"
        assert "MB" in row[3]


class TestQuantization:
    def test_quantized_values_on_grid(self, rng):
        values = rng.standard_normal(100)
        q = quantize_array(values, 8)
        scale = np.abs(values).max() / 127
        steps = q / scale
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_zero_array_unchanged(self):
        z = np.zeros(10)
        assert np.array_equal(quantize_array(z, 8), z)

    def test_rejects_one_bit(self):
        with pytest.raises(ValueError):
            quantize_array(np.ones(3), 1)

    def test_model_quantization_keeps_accuracy_shape(self, rng):
        model = nn.Sequential(nn.Linear(6, 16, rng=rng), nn.ReLU(),
                              nn.Linear(16, 2, rng=rng))
        x = rng.standard_normal((20, 6))
        before = model(Tensor(x)).data
        quantize_model_weights(model, bits=8)
        after = model(Tensor(x)).data
        assert np.allclose(before, after, atol=0.1)
        assert not np.array_equal(before, after)

    def test_batchnorm_params_untouched(self, rng):
        model = nn.Sequential(nn.Linear(4, 4, rng=rng), nn.BatchNorm1d(4))
        model[1].gamma.data = rng.standard_normal(4) * 1e-4
        gamma_before = model[1].gamma.data.copy()
        quantize_model_weights(model, bits=4)
        assert np.array_equal(model[1].gamma.data, gamma_before)


BIT_WIDTHS = (2, 3, 4, 5, 6, 7, 8)


class TestQuantizeArrayGrid:
    """Grid properties of the post-training quantizer at every width the
    memory/accuracy trade-off (Table IV) can ask for."""

    @staticmethod
    def _values(seed=7):
        return np.random.default_rng(seed).standard_normal(500) * 0.3

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_error_bounded_by_half_lsb(self, bits):
        values = self._values()
        lsb = np.abs(values).max() / (2 ** (bits - 1) - 1)
        error = np.abs(quantize_array(values, bits) - values)
        assert error.max() <= lsb / 2 + 1e-12

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_idempotent(self, bits):
        once = quantize_array(self._values(), bits)
        assert np.allclose(quantize_array(once, bits), once, atol=1e-12)

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_sign_symmetric(self, bits):
        values = self._values()
        assert np.allclose(quantize_array(-values, bits),
                           -quantize_array(values, bits), atol=1e-12)

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_peak_is_exact(self, bits):
        values = self._values()
        peak = np.argmax(np.abs(values))
        assert quantize_array(values, bits)[peak] == pytest.approx(
            values[peak], abs=1e-12)

    @pytest.mark.parametrize("bits", BIT_WIDTHS)
    def test_level_count_fits_grid(self, bits):
        levels = np.unique(quantize_array(self._values(), bits))
        assert len(levels) <= 2 ** bits - 1

    @pytest.mark.parametrize("bits", BIT_WIDTHS[:-1])
    def test_error_shrinks_with_one_more_bit(self, bits):
        values = self._values()
        coarse = np.abs(quantize_array(values, bits) - values).mean()
        fine = np.abs(quantize_array(values, bits + 1) - values).mean()
        assert fine < coarse
