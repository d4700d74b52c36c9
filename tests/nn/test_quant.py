"""Tests for the multi-bit integer deployment kernel (repro.nn.quant)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import deploy_dense_int, quant_scale
from repro.nn.linear import Linear


def _fake_quant_weight(layer, bits):
    """Float reference: the weights quantize-dequantized on the grid."""
    q_max = 2 ** (bits - 1) - 1
    scale = quant_scale(layer.weight.data, bits)
    return np.clip(np.round(layer.weight.data / scale), -q_max,
                   q_max) * scale


class TestQuantScale:
    def test_maps_peak_to_grid_edge(self):
        values = np.array([-3.0, 1.0, 2.0])
        scale = quant_scale(values, bits=8)
        assert scale == pytest.approx(3.0 / 127)

    def test_zero_tensor_gives_unit_scale(self):
        assert quant_scale(np.zeros(5), bits=8) == 1.0

    def test_empty_tensor_gives_unit_scale(self):
        assert quant_scale(np.zeros(0), bits=8) == 1.0

    def test_invalid_bits_raise(self):
        with pytest.raises(ValueError, match="bits"):
            quant_scale(np.ones(3), bits=1)
        with pytest.raises(ValueError, match="bits"):
            quant_scale(np.ones(3), bits=17)


class TestIntegerDeployment:
    def _calibrated_pair(self, bits=8, seed=9):
        rng = np.random.default_rng(seed)
        layer = Linear(8, 4, rng=np.random.default_rng(seed))
        x = rng.normal(size=(16, 8))
        x_scale = quant_scale(x, bits)
        return layer, x, x_scale

    def test_matches_fake_quant_float_path(self):
        """Integer kernel == fake-quant weights applied to fake-quant input."""
        layer, x, x_scale = self._calibrated_pair()
        deployed = deploy_dense_int(layer, x_scale, bits=8)
        got = deployed.forward(x)
        # Reference: quantize both operands in float, then matmul.
        w_q = _fake_quant_weight(layer, 8)
        x_q = np.clip(np.round(x / x_scale), -127, 127) * x_scale
        expected = x_q @ w_q.T + layer.bias.data
        assert np.allclose(got, expected, atol=1e-10)

    def test_integer_accumulator_is_integral(self):
        layer, x, x_scale = self._calibrated_pair()
        deployed = deploy_dense_int(layer, x_scale, bits=8)
        x_q = deployed.quantize_input(x)
        acc = x_q @ deployed.weight_q.T
        assert acc.dtype == np.int64

    def test_weights_within_grid(self):
        layer, x, x_scale = self._calibrated_pair(bits=5)
        deployed = deploy_dense_int(layer, x_scale, bits=5)
        assert np.abs(deployed.weight_q).max() <= 15

    def test_deploys_plain_linear(self):
        rng = np.random.default_rng(10)
        layer = Linear(6, 2, rng=rng)
        x = rng.normal(size=(4, 6))
        deployed = deploy_dense_int(layer, quant_scale(x, 8))
        out = deployed.forward(x)
        ref = x @ layer.weight.data.T + layer.bias.data
        # 8-bit quantization error stays small relative to signal.
        assert np.abs(out - ref).max() < 0.1 * np.abs(ref).max() + 0.05

    def test_bad_x_scale_raises(self):
        layer, _, _ = self._calibrated_pair()
        with pytest.raises(ValueError, match="x_scale"):
            deploy_dense_int(layer, 0.0)

    def test_shapes(self):
        layer, x, x_scale = self._calibrated_pair()
        deployed = deploy_dense_int(layer, x_scale)
        assert deployed.in_features == 8
        assert deployed.out_features == 4
        assert deployed.forward(x).shape == (16, 4)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 1000))
    def test_exactness_property(self, bits, seed):
        """For any bit width and weights: deployment == fake-quant math."""
        rng = np.random.default_rng(seed)
        layer = Linear(5, 3, bias=False, rng=rng)
        x = rng.normal(size=(3, 5))
        x_scale = quant_scale(x, bits)
        deployed = deploy_dense_int(layer, x_scale, bits=bits)
        q_max = 2 ** (bits - 1) - 1
        w_q = _fake_quant_weight(layer, bits)
        x_q = np.clip(np.round(x / x_scale), -q_max, q_max) * x_scale
        assert np.allclose(deployed.forward(x), x_q @ w_q.T, atol=1e-10)


INT_BIT_WIDTHS = (2, 4, 8, 12, 16)


class TestIntegerKernelGrid:
    """The integer kernel's quantizers at the edges of the supported
    widths, [2, 16]."""

    @staticmethod
    def _deployed(bits, seed=3):
        rng = np.random.default_rng(seed)
        layer = Linear(8, 4, rng=rng)
        x = rng.normal(size=(32, 8))
        return deploy_dense_int(layer, quant_scale(x, bits), bits=bits), x

    @pytest.mark.parametrize("bits", INT_BIT_WIDTHS)
    def test_input_quantizer_error_bounded_by_half_lsb(self, bits):
        deployed, x = self._deployed(bits)
        error = np.abs(deployed.quantize_input(x) * deployed.x_scale - x)
        assert error.max() <= deployed.x_scale / 2 + 1e-12

    @pytest.mark.parametrize("bits", INT_BIT_WIDTHS)
    def test_input_quantizer_saturates_at_grid_edge(self, bits):
        deployed, x = self._deployed(bits)
        q_max = 2 ** (bits - 1) - 1
        x_q = deployed.quantize_input(np.array([[1e6, -1e6] * 4]))
        assert x_q.tolist() == [[q_max, -q_max] * 4]

    @pytest.mark.parametrize("bits", INT_BIT_WIDTHS)
    def test_weight_peak_lands_on_grid_edge(self, bits):
        deployed, _ = self._deployed(bits)
        assert np.abs(deployed.weight_q).max() == 2 ** (bits - 1) - 1

    @pytest.mark.parametrize("bits", INT_BIT_WIDTHS)
    def test_dequantized_weights_within_half_lsb(self, bits):
        rng = np.random.default_rng(3)
        layer = Linear(8, 4, rng=rng)
        deployed = deploy_dense_int(layer, 1.0, bits=bits)
        error = np.abs(deployed.weight_q * deployed.w_scale
                       - layer.weight.data)
        assert error.max() <= deployed.w_scale / 2 + 1e-12

    @pytest.mark.parametrize("bits", (0, 1, 17, 32))
    def test_out_of_range_width_rejected(self, bits):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="bits"):
            deploy_dense_int(layer, 1.0, bits=bits)

    def test_bias_free_layer_deploys_without_bias(self):
        layer = Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        deployed = deploy_dense_int(layer, 1.0)
        assert deployed.bias is None
        assert deployed.forward(np.ones((1, 4))).shape == (1, 2)

    def test_output_error_shrinks_with_bits(self):
        rng = np.random.default_rng(4)
        layer = Linear(16, 4, rng=rng)
        x = rng.normal(size=(64, 16))
        ref = x @ layer.weight.data.T + layer.bias.data
        errors = [np.abs(deploy_dense_int(layer, quant_scale(x, bits),
                                          bits=bits).forward(x) - ref).mean()
                  for bits in (4, 8, 12)]
        assert errors[0] > errors[1] > errors[2]
