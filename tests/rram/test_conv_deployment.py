"""In-memory binary convolution deployment (weight-stationary mapping)."""

import numpy as np
import pytest

from repro import nn
from repro.rram import (AcceleratorConfig, FoldedBinaryConv1d,
                        fold_conv1d_batchnorm_sign, max_pool_bits_1d)
from repro.nn.binary import from_bits, to_bits
from repro.runtime import RRAMBackend
from repro.tensor import Tensor


def _trained_like_bn(rng, channels):
    bn = nn.BatchNorm1d(channels)
    bn.gamma.data = rng.uniform(0.5, 1.5, channels)
    bn.beta.data = rng.standard_normal(channels)
    bn.set_buffer("running_mean", rng.standard_normal(channels))
    bn.set_buffer("running_var", rng.uniform(0.5, 2.0, channels))
    bn.eval()
    return bn


class TestFoldedBinaryConv1d:
    def test_fold_matches_software_stack(self, rng):
        conv = nn.BinaryConv1d(4, 6, 5, rng=rng)
        bn = _trained_like_bn(rng, 6)
        folded = fold_conv1d_batchnorm_sign(conv, bn)

        x_pm1 = np.where(rng.random((3, 4, 20)) < 0.5, 1.0, -1.0)
        ref = bn(conv(Tensor(x_pm1))).sign_ste().data
        out = from_bits(folded.forward_bits(to_bits(x_pm1)))
        assert np.array_equal(out, ref)

    def test_strided_fold(self, rng):
        conv = nn.BinaryConv1d(2, 3, 4, stride=3, rng=rng)
        bn = _trained_like_bn(rng, 3)
        folded = fold_conv1d_batchnorm_sign(conv, bn)
        x_pm1 = np.where(rng.random((2, 2, 17)) < 0.5, 1.0, -1.0)
        ref = bn(conv(Tensor(x_pm1))).sign_ste().data
        out = from_bits(folded.forward_bits(to_bits(x_pm1)))
        assert np.array_equal(out, ref)
        assert folded.output_length(17) == ref.shape[2]

    def test_padding_rejected(self, rng):
        conv = nn.BinaryConv1d(2, 3, 3, padding=1, rng=rng)
        bn = _trained_like_bn(rng, 3)
        with pytest.raises(ValueError):
            fold_conv1d_batchnorm_sign(conv, bn)

    def test_bias_rejected(self, rng):
        conv = nn.Conv1d(2, 3, 3, bias=True, rng=rng)
        bn = _trained_like_bn(rng, 3)
        with pytest.raises(ValueError):
            fold_conv1d_batchnorm_sign(conv, bn)

    def test_input_shape_validation(self, rng):
        conv = nn.BinaryConv1d(2, 3, 3, rng=rng)
        folded = fold_conv1d_batchnorm_sign(conv, _trained_like_bn(rng, 3))
        with pytest.raises(ValueError):
            folded.forward_bits(np.zeros((2, 5, 10), np.uint8))


class TestInMemoryConv1d:
    def test_ideal_hardware_matches_folded(self, rng):
        conv = nn.BinaryConv1d(3, 5, 4, rng=rng)
        bn = _trained_like_bn(rng, 5)
        folded = fold_conv1d_batchnorm_sign(conv, bn)
        hw = RRAMBackend(AcceleratorConfig(
            tile_rows=4, tile_cols=8, ideal=True), rng).prepare_conv1d(folded)
        bits = rng.integers(0, 2, (2, 3, 15)).astype(np.uint8)
        assert np.array_equal(hw.forward_bits(bits),
                              folded.forward_bits(bits))

    def test_realistic_hardware_high_agreement(self, rng):
        conv = nn.BinaryConv1d(4, 8, 5, rng=rng)
        bn = _trained_like_bn(rng, 8)
        folded = fold_conv1d_batchnorm_sign(conv, bn)
        hw = RRAMBackend(AcceleratorConfig(), rng).prepare_conv1d(folded)
        bits = rng.integers(0, 2, (4, 4, 30)).astype(np.uint8)
        agreement = (hw.forward_bits(bits)
                     == folded.forward_bits(bits)).mean()
        assert agreement > 0.95


class TestBitPooling:
    def test_max_pool_bits_is_or(self):
        bits = np.array([[[1, 0, 0, 0, 1, 1]]], dtype=np.uint8)
        out = max_pool_bits_1d(bits, 2)
        assert np.array_equal(out, [[[1, 0, 1]]])

    def test_matches_float_maxpool_on_pm1(self, rng):
        bits = rng.integers(0, 2, (2, 3, 12)).astype(np.uint8)
        pool = nn.MaxPool1d(2)
        ref = pool(Tensor(from_bits(bits))).data
        out = from_bits(max_pool_bits_1d(bits, 2))
        assert np.array_equal(out, ref)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            max_pool_bits_1d(np.zeros((3, 4), np.uint8), 2)


class TestFullBinaryNetworkOnHardware:
    def test_ecg_conv_stack_deploys(self, rng):
        """Two binary conv stages + pooling executed fully on the fabric
        must agree with the software eval stack (ideal devices)."""
        conv1 = nn.BinaryConv1d(4, 6, 5, rng=rng)
        bn1 = _trained_like_bn(rng, 6)
        conv2 = nn.BinaryConv1d(6, 4, 3, rng=rng)
        bn2 = _trained_like_bn(rng, 4)

        x_pm1 = np.where(rng.random((2, 4, 40)) < 0.5, 1.0, -1.0)
        # Software stack.
        h = bn1(conv1(Tensor(x_pm1))).sign_ste()
        h = nn.MaxPool1d(2)(h)
        ref = bn2(conv2(h)).sign_ste().data

        # Hardware stack.
        cfg = AcceleratorConfig(tile_rows=8, tile_cols=16, ideal=True)
        backend = RRAMBackend(cfg, rng)
        hw1 = backend.prepare_conv1d(fold_conv1d_batchnorm_sign(conv1, bn1))
        hw2 = backend.prepare_conv1d(fold_conv1d_batchnorm_sign(conv2, bn2))
        bits = hw1.forward_bits(to_bits(x_pm1))
        bits = max_pool_bits_1d(bits, 2)
        out = hw2.forward_bits(bits)
        assert np.array_equal(from_bits(out), ref)
