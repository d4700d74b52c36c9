"""Tests for the packed-word XNOR-popcount kernel (repro.nn.bitops)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (PackedBinaryDense, pack_bits, packed_xnor_popcount,
                      unpack_bits, xnor_popcount)
from repro.nn.binary import FoldedBinaryDense


class TestPackUnpack:
    def test_round_trip_exact_multiple(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(5, 128)).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 128), bits)

    def test_round_trip_ragged_width(self):
        rng = np.random.default_rng(1)
        for width in (1, 7, 63, 64, 65, 100, 129):
            bits = rng.integers(0, 2, size=(3, width)).astype(np.uint8)
            assert np.array_equal(unpack_bits(pack_bits(bits), width), bits)

    def test_word_count(self):
        assert pack_bits(np.zeros((2, 64), dtype=np.uint8)).shape == (2, 1)
        assert pack_bits(np.zeros((2, 65), dtype=np.uint8)).shape == (2, 2)
        assert pack_bits(np.zeros((2, 1), dtype=np.uint8)).shape == (2, 1)

    def test_little_endian_layout(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = 1
        assert pack_bits(bits).tolist() == [1]
        bits = np.zeros(64, dtype=np.uint8)
        bits[63] = 1
        assert pack_bits(bits).tolist() == [2 ** 63]

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            pack_bits(np.array([0, 2]))

    def test_unpack_width_overflow_rejected(self):
        words = pack_bits(np.zeros(64, dtype=np.uint8))
        with pytest.raises(ValueError, match="at most"):
            unpack_bits(words, 65)

    def test_batch_axes_preserved(self):
        bits = np.zeros((2, 3, 70), dtype=np.uint8)
        assert pack_bits(bits).shape == (2, 3, 2)
        assert unpack_bits(pack_bits(bits), 70).shape == (2, 3, 70)


class TestPackedXnorPopcount:
    def test_matches_reference_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, size=(10, 200)).astype(np.uint8)
        w = rng.integers(0, 2, size=(7, 200)).astype(np.uint8)
        packed = packed_xnor_popcount(pack_bits(x), pack_bits(w), 200)
        assert np.array_equal(packed, xnor_popcount(x, w))

    def test_pad_bits_not_counted(self):
        # width 1: a single agreeing bit must give popcount exactly 1.
        x = np.array([[1]], dtype=np.uint8)
        w = np.array([[1]], dtype=np.uint8)
        out = packed_xnor_popcount(pack_bits(x), pack_bits(w), 1)
        assert out.tolist() == [[1]]

    def test_all_agree_and_all_disagree(self):
        ones = np.ones((1, 100), dtype=np.uint8)
        zeros = np.zeros((1, 100), dtype=np.uint8)
        assert packed_xnor_popcount(pack_bits(ones), pack_bits(ones),
                                    100).item() == 100
        assert packed_xnor_popcount(pack_bits(ones), pack_bits(zeros),
                                    100).item() == 0

    def test_word_mismatch_raises(self):
        a = pack_bits(np.zeros((1, 64), dtype=np.uint8))
        b = pack_bits(np.zeros((1, 128), dtype=np.uint8))
        with pytest.raises(ValueError, match="mismatch"):
            packed_xnor_popcount(a, b, 64)

    def test_impossible_width_raises(self):
        a = pack_bits(np.zeros((1, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="impossible"):
            packed_xnor_popcount(a, a, 65)

    def test_non_2d_raises(self):
        a = pack_bits(np.zeros(64, dtype=np.uint8))
        with pytest.raises(ValueError, match="2-D"):
            packed_xnor_popcount(a, a, 64)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2 ** 31))
    def test_equivalence_property(self, width, seed):
        """Packed kernel == matmul kernel for any width and bit pattern."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(4, width)).astype(np.uint8)
        w = rng.integers(0, 2, size=(3, width)).astype(np.uint8)
        assert np.array_equal(
            packed_xnor_popcount(pack_bits(x), pack_bits(w), width),
            xnor_popcount(x, w))


class TestPackedBinaryDense:
    def _folded(self, in_f=150, out_f=20, seed=3) -> FoldedBinaryDense:
        rng = np.random.default_rng(seed)
        return FoldedBinaryDense(
            weight_bits=rng.integers(0, 2, (out_f, in_f)).astype(np.uint8),
            theta=rng.normal(scale=5.0, size=out_f),
            gamma_sign=rng.choice([-1.0, 0.0, 1.0], size=out_f),
            beta_sign=rng.choice([-1.0, 1.0], size=out_f),
        )

    def test_bit_exact_with_unpacked_layer(self):
        folded = self._folded()
        packed = PackedBinaryDense(folded)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(32, folded.in_features)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))

    def test_word_to_word_chaining(self):
        """Two packed layers chained stay bit-exact with unpacked chain."""
        first = self._folded(in_f=150, out_f=64, seed=5)
        second = self._folded(in_f=64, out_f=10, seed=6)
        p1, p2 = PackedBinaryDense(first), PackedBinaryDense(second)
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, size=(16, 150)).astype(np.uint8)
        packed_out = p2.forward_bits(p1.forward_bits(x))
        unpacked_out = second.forward_bits(first.forward_bits(x))
        assert np.array_equal(packed_out, unpacked_out)

    def test_shapes_exposed(self):
        packed = PackedBinaryDense(self._folded(in_f=100, out_f=8))
        assert packed.in_features == 100
        assert packed.out_features == 8
        assert packed.weight_words.shape == (8, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exactness_property(self, seed):
        folded = self._folded(in_f=97, out_f=11, seed=seed)
        packed = PackedBinaryDense(folded)
        rng = np.random.default_rng(seed + 1)
        x = rng.integers(0, 2, size=(8, 97)).astype(np.uint8)
        assert np.array_equal(packed.forward_bits(x), folded.forward_bits(x))


class TestPadCorrection:
    def test_exact_values(self):
        from repro.nn import pad_correction
        assert pad_correction(1, 64) == 0
        assert pad_correction(2, 65) == 63
        assert pad_correction(0, 0) == 0
        assert pad_correction(3, 100) == 92

    def test_rejects_impossible_width(self):
        from repro.nn import pad_correction
        with pytest.raises(ValueError, match="impossible"):
            pad_correction(1, 65)
        with pytest.raises(ValueError, match="impossible"):
            pad_correction(1, -1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2 ** 31))
    def test_raw_popcount_minus_pad_is_exact(self, width, seed):
        """The documented identity: raw XNOR popcount over padded words
        equals the true agreement count plus the pad correction."""
        from repro.nn import pad_correction
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(3, width)).astype(np.uint8)
        w = rng.integers(0, 2, size=(2, width)).astype(np.uint8)
        xw, ww = pack_bits(x), pack_bits(w)
        raw = np.bitwise_count(~(xw[:, None, :] ^ ww[None, :, :])) \
            .sum(axis=-1, dtype=np.int64)
        correction = pad_correction(xw.shape[-1], width)
        assert np.array_equal(raw - correction, xnor_popcount(x, w))


class TestRoundTripEveryWidth:
    @pytest.mark.parametrize("width", range(1, 131))
    def test_round_trip(self, width):
        """Satellite contract: pack/unpack round-trips widths 1..130."""
        rng = np.random.default_rng(width)
        bits = rng.integers(0, 2, size=(4, width)).astype(np.uint8)
        words = pack_bits(bits)
        assert words.shape == (4, -(-width // 64))
        assert np.array_equal(unpack_bits(words, width), bits)

    def test_zero_width(self):
        bits = np.zeros((3, 0), dtype=np.uint8)
        words = pack_bits(bits)
        assert words.shape == (3, 0)
        assert np.array_equal(unpack_bits(words, 0), bits)


class TestPackedWeightCaching:
    def test_weights_packed_once_at_construction(self):
        """Per-call work must not re-pack the weight words."""
        folded = FoldedBinaryDense(
            weight_bits=np.eye(8, 100, dtype=np.uint8),
            theta=np.zeros(8), gamma_sign=np.ones(8), beta_sign=np.ones(8))
        packed = PackedBinaryDense(folded)
        cached = packed.weight_words
        x = np.random.default_rng(0).integers(0, 2, (4, 100)).astype(np.uint8)
        packed.forward_bits(x)
        packed.forward_bits(x)
        assert packed.weight_words is cached
        # Mutating the folded weights must NOT affect the packed layer:
        # packing happened once, at construction.
        folded.weight_bits[:] = 1 - folded.weight_bits
        before = packed.forward_bits(x)
        assert np.array_equal(before, packed.forward_bits(x))


class TestPackedOutputDense:
    def _folded(self, in_f=130, classes=4, seed=11):
        from repro.nn.binary import FoldedOutputDense
        rng = np.random.default_rng(seed)
        return FoldedOutputDense(
            weight_bits=rng.integers(0, 2, (classes, in_f)).astype(np.uint8),
            scale=rng.normal(size=classes),
            offset=rng.normal(size=classes))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_scores_and_predictions_match_reference(self, seed):
        from repro.nn import PackedOutputDense
        folded = self._folded(seed=seed)
        packed = PackedOutputDense(folded)
        rng = np.random.default_rng(seed + 1)
        x = rng.integers(0, 2, (8, folded.in_features)).astype(np.uint8)
        assert np.allclose(packed.forward_scores(x),
                           folded.forward_scores(x))
        assert np.array_equal(packed.predict(x), folded.predict(x))
