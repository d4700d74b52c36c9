"""Packed convolution kernels vs the folded reference — bit-exactness.

The ``packed`` backend's conv paths (shift-or patch words for 1-D
convolutions, bit-packed im2col for standard 2-D ones, bit-sliced
channel-major kernels for depthwise) agree bit-for-bit with the folded
integer reference on random conv blocks, across ragged channel counts,
strides, and degenerate batch-norm channels (``gamma == 0``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import (PackedBinaryConv1d, PackedBinaryConv2d,
                      pack_feature_map, unpack_feature_map)
from repro.rram import (fold_conv1d_batchnorm_sign, fold_conv2d_batchnorm_sign,
                        fold_depthwise2d_batchnorm_sign)


def _fitted_bn(n, rng, cls=nn.BatchNorm1d):
    """A batch-norm with realistic running stats and all three gamma-sign
    regimes represented."""
    bn = cls(n)
    bn.set_buffer("running_mean", rng.normal(0, 2, n))
    bn.set_buffer("running_var", rng.uniform(0.5, 3, n))
    bn.gamma.data[:] = rng.choice([-1.5, 0.0, 1.2], n, p=[0.3, 0.2, 0.5])
    bn.beta.data[:] = rng.normal(0, 1, n)
    return bn


class TestPackedConv1d:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_blocks_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        c_in = int(rng.integers(1, 140))
        c_out = int(rng.integers(1, 20))
        kernel = int(rng.integers(1, 8))
        stride = int(rng.integers(1, 4))
        length = kernel + int(rng.integers(0, 30))
        conv = nn.BinaryConv1d(c_in, c_out, kernel, stride=stride, rng=rng)
        folded = fold_conv1d_batchnorm_sign(conv, _fitted_bn(c_out, rng))
        packed = PackedBinaryConv1d(folded)
        x = rng.integers(0, 2, (3, c_in, length)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))

    def test_ecg_geometry(self, rng):
        conv = nn.BinaryConv1d(32, 32, 13, rng=rng)
        folded = fold_conv1d_batchnorm_sign(conv, _fitted_bn(32, rng))
        packed = PackedBinaryConv1d(folded)
        x = rng.integers(0, 2, (4, 32, 200)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))

    def test_rejects_wrong_shape(self, rng):
        conv = nn.BinaryConv1d(4, 4, 3, rng=rng)
        packed = PackedBinaryConv1d(
            fold_conv1d_batchnorm_sign(conv, _fitted_bn(4, rng)))
        with pytest.raises(ValueError, match="expected"):
            packed.forward_bits(np.zeros((2, 5, 10), dtype=np.uint8))


def _conv1d_pair(rng, c_in, c_out, kernel, stride=1):
    conv = nn.BinaryConv1d(c_in, c_out, kernel, stride=stride, rng=rng)
    folded = fold_conv1d_batchnorm_sign(conv, _fitted_bn(c_out, rng))
    return folded, PackedBinaryConv1d(folded)


class TestShiftOrPatches:
    """Edges of the shift-or patch words: pieces that fill a word exactly
    or straddle two, channel words wider than one word, strides, and
    degenerate batch shapes."""

    @pytest.mark.parametrize("c_in,kernel", [
        (4, 16), (8, 8), (64, 1),          # fan-in exactly 64
        (5, 13), (13, 5), (65, 1),         # fan-in 65: one bit spills
    ])
    def test_fan_in_at_the_word_edge(self, rng, c_in, kernel):
        folded, packed = _conv1d_pair(rng, c_in, 6, kernel)
        assert packed.weight_words.shape[1] == -(-c_in * kernel // 64)
        x = rng.integers(0, 2, (3, c_in, kernel + 9)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))

    @pytest.mark.parametrize("c_in", [64, 65, 130])
    @pytest.mark.parametrize("kernel", [1, 2, 3])
    def test_straddling_channel_words(self, rng, c_in, kernel):
        folded, packed = _conv1d_pair(rng, c_in, 5, kernel)
        x = rng.integers(0, 2, (2, c_in, kernel + 6)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))

    @pytest.mark.parametrize("stride", [2, 3])
    @pytest.mark.parametrize("c_in,kernel", [(4, 11), (7, 10), (33, 3)])
    def test_strides(self, rng, stride, c_in, kernel):
        folded, packed = _conv1d_pair(rng, c_in, 4, kernel, stride)
        for length in (kernel, kernel + stride - 1, kernel + 20):
            x = rng.integers(0, 2, (3, c_in, length)).astype(np.uint8)
            got = packed.forward_bits(x)
            assert got.shape == (3, 4, folded.output_length(length))
            assert np.array_equal(got, folded.forward_bits(x))

    def test_single_output_position(self, rng):
        folded, packed = _conv1d_pair(rng, 9, 4, 8)
        x = rng.integers(0, 2, (5, 9, 8)).astype(np.uint8)
        got = packed.forward_bits(x)
        assert got.shape == (5, 4, 1)
        assert np.array_equal(got, folded.forward_bits(x))

    def test_empty_batch(self, rng):
        _, packed = _conv1d_pair(rng, 4, 3, 5)
        got = packed.forward_bits(np.zeros((0, 4, 20), dtype=np.uint8))
        assert got.shape == (0, 3, 16)

    def test_non_contiguous_input_view(self, rng):
        folded, packed = _conv1d_pair(rng, 6, 4, 5)
        base = rng.integers(0, 2, (4, 30, 12)).astype(np.uint8)
        x = base.transpose(0, 2, 1)[::2, :6, ::2]     # (2, 6, 15) view
        assert not x.flags.c_contiguous
        assert np.array_equal(packed.forward_bits(x),
                              folded.forward_bits(np.ascontiguousarray(x)))

    @pytest.mark.parametrize("value", [2, 255])
    def test_non_bit_input_raises(self, rng, value):
        _, packed = _conv1d_pair(rng, 4, 3, 5)
        x = rng.integers(0, 2, (2, 4, 12)).astype(np.uint8)
        x[1, 3, 7] = value
        with pytest.raises(ValueError, match="0/1"):
            packed.forward_bits(x)


class TestPackedConv2dStandard:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_blocks_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        c_in = int(rng.integers(1, 70))
        c_out = int(rng.integers(1, 12))
        kernel = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        side = kernel + int(rng.integers(0, 8))
        conv = nn.BinaryConv2d(c_in, c_out, kernel, stride=stride, rng=rng)
        folded = fold_conv2d_batchnorm_sign(
            conv, _fitted_bn(c_out, rng, nn.BatchNorm2d))
        packed = PackedBinaryConv2d(folded)
        x = rng.integers(0, 2, (2, c_in, side, side)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))

    def test_pointwise_words_path_matches(self, rng):
        conv = nn.BinaryConv2d(70, 33, 1, rng=rng)
        folded = fold_conv2d_batchnorm_sign(
            conv, _fitted_bn(33, rng, nn.BatchNorm2d))
        packed = PackedBinaryConv2d(folded)
        x = rng.integers(0, 2, (2, 70, 6, 6)).astype(np.uint8)
        words_out = packed.forward_map(pack_feature_map(x))
        assert np.array_equal(unpack_feature_map(words_out, 33),
                              folded.forward_bits(x))


class TestPackedConv2dDepthwise:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bitsliced_random_blocks_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        channels = int(rng.integers(1, 140))
        kernel = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 3))
        side = kernel + int(rng.integers(0, 8))
        conv = nn.BinaryDepthwiseConv2d(channels, kernel, stride=stride,
                                        rng=rng)
        folded = fold_depthwise2d_batchnorm_sign(
            conv, _fitted_bn(channels, rng, nn.BatchNorm2d))
        packed = PackedBinaryConv2d(folded)
        x = rng.integers(0, 2, (2, channels, side, side)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))

    def test_words_chaining_separable_block(self, rng):
        """Depthwise -> pointwise chained entirely in the packed domain."""
        channels = 96
        dw = nn.BinaryDepthwiseConv2d(channels, 3, rng=rng)
        pw = nn.BinaryConv2d(channels, 64, 1, rng=rng)
        f_dw = fold_depthwise2d_batchnorm_sign(
            dw, _fitted_bn(channels, rng, nn.BatchNorm2d))
        f_pw = fold_conv2d_batchnorm_sign(
            pw, _fitted_bn(64, rng, nn.BatchNorm2d))
        p_dw, p_pw = PackedBinaryConv2d(f_dw), PackedBinaryConv2d(f_pw)
        x = rng.integers(0, 2, (2, channels, 10, 10)).astype(np.uint8)
        want = f_pw.forward_bits(f_dw.forward_bits(x))
        got = p_pw.forward_map(p_dw.forward_map(pack_feature_map(x)))
        assert np.array_equal(unpack_feature_map(got, 64), want)

    def test_pad_lanes_masked(self, rng):
        """Channel counts off the 64 grid must not leak garbage into the
        pad lanes of the packed output (a chained layer would read them)."""
        channels = 70
        conv = nn.BinaryDepthwiseConv2d(channels, 3, rng=rng)
        folded = fold_depthwise2d_batchnorm_sign(
            conv, _fitted_bn(channels, rng, nn.BatchNorm2d))
        packed = PackedBinaryConv2d(folded)
        x = rng.integers(0, 2, (1, channels, 6, 6)).astype(np.uint8)
        words = packed.forward_map(pack_feature_map(x))
        pad = unpack_bits_hi = np.unpackbits(
            words.view(np.uint8), axis=-1, bitorder="little")[..., channels:]
        assert not pad.any(), unpack_bits_hi.sum()

    def test_gamma_zero_channels_constant(self, rng):
        conv = nn.BinaryDepthwiseConv2d(8, 3, rng=rng)
        bn = nn.BatchNorm2d(8)
        bn.gamma.data[:] = 0.0
        bn.beta.data[:4] = 1.0
        bn.beta.data[4:] = -1.0
        folded = fold_depthwise2d_batchnorm_sign(conv, bn)
        packed = PackedBinaryConv2d(folded)
        x = rng.integers(0, 2, (2, 8, 5, 5)).astype(np.uint8)
        out = packed.forward_bits(x)
        assert (out[:, :4] == 1).all() and (out[:, 4:] == 0).all()
        assert np.array_equal(out, folded.forward_bits(x))


class TestDegenerateThresholds:
    """Non-finite folded thresholds (overflowed batch-norm folds) must keep
    the sign semantics of the float comparison in the integer/bit-sliced
    threshold paths."""

    @pytest.mark.parametrize("theta_value,expected_pos", [
        (np.inf, 0),      # dot >= +inf never fires
        (-np.inf, 1),     # dot >= -inf always fires
    ])
    def test_infinite_theta_standard_conv(self, rng, theta_value,
                                          expected_pos):
        from repro.rram.conv2d import FoldedBinaryConv2d
        folded = FoldedBinaryConv2d(
            weight_bits=rng.integers(0, 2, (3, 4 * 2 * 2)).astype(np.uint8),
            in_channels=4, kernel_size=(2, 2), stride=(1, 1),
            theta=np.full(3, theta_value),
            gamma_sign=np.ones(3), beta_sign=np.ones(3))
        packed = PackedBinaryConv2d(folded)
        x = rng.integers(0, 2, (2, 4, 5, 5)).astype(np.uint8)
        want = folded.forward_bits(x)
        got = packed.forward_bits(x)
        assert (got == expected_pos).all()
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("theta_value", [np.inf, -np.inf])
    @pytest.mark.parametrize("gamma", [1.0, -1.0])
    def test_infinite_theta_depthwise_bitsliced(self, rng, theta_value,
                                                gamma):
        from repro.rram.conv2d import FoldedBinaryConv2d
        c = 6
        folded = FoldedBinaryConv2d(
            weight_bits=rng.integers(0, 2, (c, 9)).astype(np.uint8),
            in_channels=c, kernel_size=(3, 3), stride=(1, 1),
            theta=np.full(c, theta_value),
            gamma_sign=np.full(c, gamma), beta_sign=np.ones(c),
            depthwise=True)
        packed = PackedBinaryConv2d(folded)
        x = rng.integers(0, 2, (2, c, 6, 6)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x),
                              folded.forward_bits(x))


def _threshold_channels(fan_in):
    """``(theta, gamma_sign, beta_sign)`` over every regime the integer
    threshold encodes: live, saturated and constant channels of both
    gamma signs, gamma == 0 with beta >= 0 and beta < 0, infinite
    thresholds, thresholds on representable dot values (fan_in - 2x)
    and between them."""
    on_dot = [fan_in - 2.0 * x for x in
              sorted({0, 1, fan_in // 2, max(fan_in - 1, 0), fan_in})]
    thetas = on_dot + [t + 0.5 for t in on_dot] + [
        -np.inf, np.inf, fan_in + 3.0, -fan_in - 3.0, 0.0]
    channels = [(theta, gamma, beta) for theta in thetas
                for gamma in (1.0, -1.0) for beta in (1.0, -1.0)]
    channels += [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, -1.0),
                 (np.inf, 0.0, 1.0), (-np.inf, 0.0, -1.0)]
    return tuple(np.array(column) for column in zip(*channels))


class TestIntegerThreshold:
    """``_IntegerThreshold`` over every count a layer can produce, against
    the float ``threshold_bits`` it replaces: the bounds are stored in the
    kernel's count dtype, so a sentinel or an off-by-one at either end of
    the count range, or at the uint16/uint32 edge, would show here."""

    @pytest.mark.parametrize("fan_in", [1, 7, 44, 64, 65, 1000,
                                        65472,      # last uint16 width
                                        65473,      # pads to 65,536 bits
                                        65536])
    def test_every_count_matches_threshold_bits(self, fan_in):
        from repro.nn.binary import threshold_bits
        from repro.nn.bitops import _IntegerThreshold, packed_xor_counts

        words = np.zeros((1, -(-fan_in // 64)), dtype=np.uint64)
        count_dtype = packed_xor_counts(words, words).dtype
        assert count_dtype == (np.uint16 if fan_in <= 65472 else np.uint32)
        theta, gamma_sign, beta_sign = _threshold_channels(fan_in)
        threshold = _IntegerThreshold(theta, gamma_sign, beta_sign, fan_in)
        assert threshold.below.dtype == threshold.x_ge.dtype == count_dtype

        x = np.arange(fan_in + 1)
        want = threshold_bits((fan_in - 2 * x)[:, None], theta[None, :],
                              gamma_sign[None, :], beta_sign[None, :])
        counts = np.repeat(x.astype(count_dtype)[:, None], len(theta),
                           axis=1)                          # C-ordered
        channel_major = np.ascontiguousarray(counts.T).T    # transposed view
        assert not channel_major.flags.c_contiguous
        for layout in (counts, channel_major):
            got = threshold.apply(layout)
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_weights_first_counts_are_the_transpose(self, rng):
        from repro.nn import pack_bits
        from repro.nn.bitops import packed_xor_counts

        patches = pack_bits(rng.integers(0, 2, (300, 150)).astype(np.uint8))
        weights = pack_bits(rng.integers(0, 2, (5, 150)).astype(np.uint8))
        assert np.array_equal(packed_xor_counts(weights, patches).T,
                              packed_xor_counts(patches, weights))


class TestPackedXorCountsValidation:
    def test_word_mismatch_raises(self):
        from repro.nn.bitops import packed_xor_counts
        from repro.nn import pack_bits
        a = pack_bits(np.ones((2, 64), dtype=np.uint8))
        b = pack_bits(np.ones((3, 128), dtype=np.uint8))
        with pytest.raises(ValueError, match="mismatch"):
            packed_xor_counts(a, b)

    def test_non_2d_raises(self):
        from repro.nn.bitops import packed_xor_counts
        from repro.nn import pack_bits
        a = pack_bits(np.ones(64, dtype=np.uint8))
        with pytest.raises(ValueError, match="2-D"):
            packed_xor_counts(a, a)
