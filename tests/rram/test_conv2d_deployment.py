"""Tests for in-memory 2-D binary convolution (repro.rram.conv2d)."""

import numpy as np
import pytest

from repro.nn import (BatchNorm2d, BinaryConv2d, BinaryDepthwiseConv2d,
                      Conv2d)
from repro.nn.binary import from_bits, to_bits
from repro.rram import (AcceleratorConfig, fold_conv2d_batchnorm_sign,
                        fold_depthwise2d_batchnorm_sign)
from repro.runtime import RRAMBackend
from repro.tensor import Tensor


def calibrated_bn2d(channels: int, rng: np.random.Generator) -> BatchNorm2d:
    """A batch-norm with non-trivial running stats and affine params."""
    bn = BatchNorm2d(channels)
    bn.set_buffer("running_mean", rng.normal(scale=2.0, size=channels))
    bn.set_buffer("running_var", rng.uniform(0.5, 3.0, size=channels))
    bn.gamma.data = rng.normal(size=channels)
    bn.beta.data = rng.normal(size=channels)
    bn.eval()
    return bn


def software_reference(conv, bn, x_pm1: np.ndarray) -> np.ndarray:
    """sign(BN(conv(x))) evaluated through the software stack, as bits."""
    out = bn(conv(Tensor(x_pm1)))
    return to_bits(np.where(out.data >= 0, 1.0, -1.0))


class TestFoldConv2d:
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(0)

    def test_fold_matches_software_stack(self, rng):
        conv = BinaryConv2d(3, 5, kernel_size=3, rng=rng)
        bn = calibrated_bn2d(5, rng)
        folded = fold_conv2d_batchnorm_sign(conv, bn)
        bits = rng.integers(0, 2, size=(2, 3, 10, 12)).astype(np.uint8)
        hardware = folded.forward_bits(bits)
        software = software_reference(conv, bn, from_bits(bits))
        assert np.array_equal(hardware, software)

    def test_strided_fold(self, rng):
        conv = BinaryConv2d(2, 4, kernel_size=3, stride=2, rng=rng)
        bn = calibrated_bn2d(4, rng)
        folded = fold_conv2d_batchnorm_sign(conv, bn)
        bits = rng.integers(0, 2, size=(2, 2, 11, 9)).astype(np.uint8)
        assert np.array_equal(folded.forward_bits(bits),
                              software_reference(conv, bn, from_bits(bits)))

    def test_rectangular_kernel(self, rng):
        conv = BinaryConv2d(2, 3, kernel_size=(1, 5), rng=rng)
        bn = calibrated_bn2d(3, rng)
        folded = fold_conv2d_batchnorm_sign(conv, bn)
        bits = rng.integers(0, 2, size=(1, 2, 4, 12)).astype(np.uint8)
        assert np.array_equal(folded.forward_bits(bits),
                              software_reference(conv, bn, from_bits(bits)))

    def test_plain_conv_with_pm1_weights(self, rng):
        conv = Conv2d(2, 3, kernel_size=3, bias=False, rng=rng)
        conv.weight.data = np.sign(conv.weight.data) + (
            conv.weight.data == 0)
        bn = calibrated_bn2d(3, rng)
        folded = fold_conv2d_batchnorm_sign(conv, bn)
        bits = rng.integers(0, 2, size=(1, 2, 8, 8)).astype(np.uint8)
        assert np.array_equal(folded.forward_bits(bits),
                              software_reference(conv, bn, from_bits(bits)))

    def test_padding_rejected(self, rng):
        conv = BinaryConv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        with pytest.raises(ValueError, match="padding"):
            fold_conv2d_batchnorm_sign(conv, calibrated_bn2d(3, rng))

    def test_bias_rejected(self, rng):
        conv = Conv2d(2, 3, kernel_size=3, bias=True, rng=rng)
        with pytest.raises(ValueError, match="bias"):
            fold_conv2d_batchnorm_sign(conv, calibrated_bn2d(3, rng))

    def test_input_shape_validation(self, rng):
        conv = BinaryConv2d(3, 4, kernel_size=3, rng=rng)
        folded = fold_conv2d_batchnorm_sign(conv, calibrated_bn2d(4, rng))
        with pytest.raises(ValueError, match="expected"):
            folded.forward_bits(np.zeros((1, 2, 8, 8), dtype=np.uint8))

    def test_output_shape(self, rng):
        conv = BinaryConv2d(1, 2, kernel_size=3, stride=2, rng=rng)
        folded = fold_conv2d_batchnorm_sign(conv, calibrated_bn2d(2, rng))
        assert folded.output_shape(11, 9) == (5, 4)
        bits = np.zeros((1, 1, 11, 9), dtype=np.uint8)
        assert folded.forward_bits(bits).shape == (1, 2, 5, 4)


class TestFoldDepthwise2d:
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(1)

    def test_fold_matches_software_stack(self, rng):
        conv = BinaryDepthwiseConv2d(4, kernel_size=3, rng=rng)
        bn = calibrated_bn2d(4, rng)
        folded = fold_depthwise2d_batchnorm_sign(conv, bn)
        bits = rng.integers(0, 2, size=(2, 4, 9, 9)).astype(np.uint8)
        assert np.array_equal(folded.forward_bits(bits),
                              software_reference(conv, bn, from_bits(bits)))

    def test_strided_depthwise(self, rng):
        conv = BinaryDepthwiseConv2d(3, kernel_size=3, stride=2, rng=rng)
        bn = calibrated_bn2d(3, rng)
        folded = fold_depthwise2d_batchnorm_sign(conv, bn)
        bits = rng.integers(0, 2, size=(2, 3, 11, 11)).astype(np.uint8)
        assert np.array_equal(folded.forward_bits(bits),
                              software_reference(conv, bn, from_bits(bits)))

    def test_fan_in_is_kernel_only(self, rng):
        conv = BinaryDepthwiseConv2d(8, kernel_size=3, rng=rng)
        folded = fold_depthwise2d_batchnorm_sign(conv,
                                                 calibrated_bn2d(8, rng))
        assert folded.fan_in == 9
        assert folded.depthwise

    def test_channels_are_independent(self, rng):
        """Flipping input bits of one channel must not change others."""
        conv = BinaryDepthwiseConv2d(3, kernel_size=3, rng=rng)
        bn = calibrated_bn2d(3, rng)
        folded = fold_depthwise2d_batchnorm_sign(conv, bn)
        bits = rng.integers(0, 2, size=(1, 3, 8, 8)).astype(np.uint8)
        base = folded.forward_bits(bits)
        mutated = bits.copy()
        mutated[:, 0] ^= 1
        out = folded.forward_bits(mutated)
        assert np.array_equal(base[:, 1:], out[:, 1:])


class TestInMemoryConv2dLayer:
    @pytest.fixture
    def rng(self):
        return np.random.default_rng(2)

    def test_ideal_hardware_matches_folded(self, rng):
        conv = BinaryConv2d(3, 6, kernel_size=3, rng=rng)
        bn = calibrated_bn2d(6, rng)
        folded = fold_conv2d_batchnorm_sign(conv, bn)
        layer = RRAMBackend(AcceleratorConfig(ideal=True),
                            np.random.default_rng(3)).prepare_conv2d(folded)
        bits = rng.integers(0, 2, size=(2, 3, 9, 9)).astype(np.uint8)
        assert np.array_equal(layer.forward_bits(bits),
                              folded.forward_bits(bits))

    def test_realistic_hardware_high_agreement(self, rng):
        conv = BinaryConv2d(2, 4, kernel_size=3, rng=rng)
        bn = calibrated_bn2d(4, rng)
        folded = fold_conv2d_batchnorm_sign(conv, bn)
        layer = RRAMBackend(AcceleratorConfig(),
                            np.random.default_rng(4)).prepare_conv2d(folded)
        bits = rng.integers(0, 2, size=(4, 2, 10, 10)).astype(np.uint8)
        agreement = np.mean(layer.forward_bits(bits)
                            == folded.forward_bits(bits))
        assert agreement > 0.95

    def test_depthwise_layer_wraps_folded(self, rng):
        conv = BinaryDepthwiseConv2d(4, kernel_size=3, rng=rng)
        bn = calibrated_bn2d(4, rng)
        folded = fold_depthwise2d_batchnorm_sign(conv, bn)
        layer = RRAMBackend(
            AcceleratorConfig(ideal=True)).prepare_conv2d(folded)
        bits = rng.integers(0, 2, size=(1, 4, 8, 8)).astype(np.uint8)
        assert np.array_equal(layer.forward_bits(bits),
                              folded.forward_bits(bits))


class TestMobilenetBlockDeployment:
    def test_depthwise_pointwise_chain(self):
        """A MobileNet block (depthwise 3x3 -> BN -> sign -> pointwise 1x1
        -> BN -> sign) deploys bit-exactly."""
        rng = np.random.default_rng(6)
        dw = BinaryDepthwiseConv2d(8, kernel_size=3, rng=rng)
        bn1 = calibrated_bn2d(8, rng)
        pw = BinaryConv2d(8, 16, kernel_size=1, rng=rng)
        bn2 = calibrated_bn2d(16, rng)

        folded_dw = fold_depthwise2d_batchnorm_sign(dw, bn1)
        folded_pw = fold_conv2d_batchnorm_sign(pw, bn2)
        bits = rng.integers(0, 2, size=(2, 8, 10, 10)).astype(np.uint8)
        hardware = folded_pw.forward_bits(folded_dw.forward_bits(bits))

        x = Tensor(from_bits(bits))
        h = bn1(dw(x))
        h = Tensor(np.where(h.data >= 0, 1.0, -1.0))
        software = to_bits(np.where(bn2(pw(h)).data >= 0, 1.0, -1.0))
        assert np.array_equal(hardware, software)
