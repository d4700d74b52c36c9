"""Packed-word XNOR-popcount: the digital kernels BNN software actually runs.

Eq. (3) is implemented two ways in this repository:

* :func:`repro.nn.binary.xnor_popcount` — an integer matmul formulation,
  convenient for verification because it mirrors the algebra;
* this module — the production formulation: activation and weight bits are
  packed 64 per machine word, XNOR is one bitwise op per word, and the
  agreement count is a hardware ``popcount``.  This is how CPU BNN
  inference libraries (and the paper's ref. [12] kernels) achieve their
  32-64x speedup over float, and it doubles as the golden model for the
  popcount adder tree of the Fig. 5 architecture.

Three families of packed kernels live here:

* dense — :class:`PackedBinaryDense` (hidden, sign-activated) and
  :class:`PackedOutputDense` (final affine/argmax layer);
* standard convolutions — :class:`PackedBinaryConv1d` builds each
  receptive field's patch words by shift-or from per-position channel
  words (no unpacked patch ever exists), :class:`PackedBinaryConv2d`
  packs bit-level im2col patches; both count disagreements with
  :func:`packed_xor_counts`;
* depthwise convolutions — :class:`PackedBinaryConv2d` with a
  ``depthwise`` fold uses a *bit-sliced* kernel: feature maps are packed
  channel-major (64 channels per word), tap disagreements accumulate in
  carry-save counter bit-planes, and the folded batch-norm threshold is
  applied by a bit-sliced comparator, so the whole layer never leaves the
  packed domain.

Bit convention matches :func:`repro.nn.binary.to_bits`: bit 1 is weight
+1.  Words are filled little-endian (feature ``j`` lands in word ``j//64``
bit ``j%64``); trailing pad bits are zero in both operands, so XNOR counts
them as agreements — :func:`pad_correction` quantifies that bias and
:func:`packed_xnor_popcount` subtracts it to stay exact for any width.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.nn.binary import (FoldedBinaryDense, FoldedOutputDense,
                             threshold_bits)
from repro.tensor.im2col import im2col_2d

__all__ = ["pack_bits", "unpack_bits", "pad_correction",
           "packed_xnor_popcount", "packed_xor_counts",
           "PackedBinaryDense", "PackedOutputDense",
           "PackedBinaryConv1d", "PackedBinaryConv2d",
           "pack_feature_map", "unpack_feature_map"]

_WORD = 64
_LITTLE_ENDIAN = sys.byteorder == "little"


def _words_view(byte_array: np.ndarray) -> np.ndarray:
    """Reinterpret a ``(..., 8k)`` uint8 array as ``(..., k)`` uint64 words
    in the module's little-endian bit order."""
    words = np.ascontiguousarray(byte_array).view(np.uint64)
    return words if _LITTLE_ENDIAN else words.byteswap()


def _bytes_view(words: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_words_view`."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if not _LITTLE_ENDIAN:
        words = words.byteswap()
    return words.view(np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., n)`` array of 0/1 into ``(..., ceil(n/64))`` uint64.

    The width ``n`` is not stored; callers keep it (the folded layers all
    know their ``in_features``).  Implemented with :func:`numpy.packbits`,
    which runs at C speed — packing is on the per-batch hot path of every
    packed layer, not just a one-time weight transform.
    """
    bits = np.asarray(bits)
    if bits.ndim < 1:
        raise ValueError("bits must have at least one axis")
    if bits.size and (bits.max() > 1 or bits.min() < 0):
        raise ValueError("bits must be 0/1")
    n = bits.shape[-1]
    n_words = -(-n // _WORD) if n else 0
    if n_words == 0:
        return np.zeros(bits.shape[:-1] + (0,), dtype=np.uint64)
    packed = np.packbits(np.ascontiguousarray(bits, dtype=np.uint8),
                         axis=-1, bitorder="little")
    pad = n_words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1)
    return _words_view(packed)


def unpack_bits(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(..., n_words) -> (..., width)``."""
    words = np.asarray(words, dtype=np.uint64)
    if width < 0:
        raise ValueError("width must be non-negative")
    if words.shape[-1] * _WORD < width:
        raise ValueError(
            f"{words.shape[-1]} words hold at most "
            f"{words.shape[-1] * _WORD} bits, asked for {width}")
    if width == 0:
        return np.zeros(words.shape[:-1] + (0,), dtype=np.uint8)
    bits = np.unpackbits(_bytes_view(words), axis=-1, bitorder="little")
    return bits[..., :width]


def pad_correction(n_words: int, width: int) -> int:
    """Agreements contributed by the zero pad bits of a packed operand pair.

    Both operands of :func:`packed_xnor_popcount` zero their trailing pad
    bits, so XNOR sees them agree: a raw popcount over ``n_words`` words
    over-counts by exactly ``n_words * 64 - width``.  Exposed as its own
    helper because every packed layer that reasons about raw popcounts
    (and the Fig. 5 popcount-tree golden model) needs the same correction.
    """
    if not 0 <= width <= n_words * _WORD:
        raise ValueError(
            f"width {width} impossible for {n_words} words")
    return n_words * _WORD - width


def _count_dtype(n_words: int):
    """The unsigned dtype that disagreement counts over ``n_words`` words
    accumulate in: it holds every count up to ``n_words * 64``."""
    return np.uint16 if n_words * _WORD < 65536 else np.uint32


def packed_xnor_popcount(x_words: np.ndarray, w_words: np.ndarray,
                         width: int) -> np.ndarray:
    """popcount(XNOR(x, w)) over packed words: ``(N, W) x (M, W) -> (N, M)``.

    ``width`` is the true bit width; pad-bit agreements are subtracted (see
    :func:`pad_correction`) so the result equals
    :func:`repro.nn.binary.xnor_popcount` on the unpacked operands exactly.

    Internally counts XOR *disagreements* word by word into a compact
    accumulator: for the large patch batches produced by the conv kernels
    this avoids materializing the ``(N, M, W)`` XNOR tensor and its slow
    trailing-axis reduction.
    """
    x_words = np.asarray(x_words, dtype=np.uint64)
    w_words = np.asarray(w_words, dtype=np.uint64)
    if x_words.ndim != 2 or w_words.ndim != 2:
        raise ValueError("operands must be 2-D (batch/neurons x words)")
    if x_words.shape[1] != w_words.shape[1]:
        raise ValueError(
            f"word-count mismatch: {x_words.shape} vs {w_words.shape}")
    n_words = x_words.shape[1]
    pad_bits = pad_correction(n_words, width)   # validates width too
    n, m = x_words.shape[0], w_words.shape[0]
    if n_words == 0 or n == 0 or m == 0:
        return np.zeros((n, m), dtype=np.int64)
    if n * m < 32768:
        # Small output: one broadcast XNOR tensor beats the loop overhead.
        xnor = ~(x_words[:, None, :] ^ w_words[None, :, :])
        agreements = np.bitwise_count(xnor).sum(axis=-1, dtype=np.int64)
        return agreements - pad_bits
    # Large output (conv patch batches): accumulate disagreements per word
    # with reused buffers; agreements = width - disagreements because the
    # zero pads never disagree.
    return width - packed_xor_counts(x_words, w_words).astype(np.int64)


def packed_xor_counts(x_words: np.ndarray, w_words: np.ndarray) -> np.ndarray:
    """XOR *disagreement* counts over packed words: ``(N, W) x (M, W) ->
    (N, M)`` unsigned counts.

    Zero pad bits never disagree, so no width correction is needed — this
    is the raw kernel the integer-threshold conv layers consume (the
    agreement count is ``width - disagreements``; see
    :func:`packed_xnor_popcount`).
    """
    x_words = np.asarray(x_words, dtype=np.uint64)
    w_words = np.asarray(w_words, dtype=np.uint64)
    if x_words.ndim != 2 or w_words.ndim != 2:
        raise ValueError("operands must be 2-D (batch/neurons x words)")
    if x_words.shape[1] != w_words.shape[1]:
        raise ValueError(
            f"word-count mismatch: {x_words.shape} vs {w_words.shape}")
    n_words = x_words.shape[1]
    n, m = x_words.shape[0], w_words.shape[0]
    acc = np.zeros((n, m), dtype=_count_dtype(n_words))
    xor_buf = np.empty((n, m), dtype=np.uint64)
    cnt_buf = np.empty((n, m), dtype=np.uint8)
    w_cols = np.ascontiguousarray(w_words.T)
    for k in range(n_words):
        np.bitwise_xor(x_words[:, k, None], w_cols[k][None, :], out=xor_buf)
        np.bitwise_count(xor_buf, out=cnt_buf)
        np.add(acc, cnt_buf, out=acc)
    return acc


# ---------------------------------------------------------------------------
# Channel-major feature-map packing (bit-sliced kernels)
# ---------------------------------------------------------------------------
def pack_feature_map(bits: np.ndarray) -> np.ndarray:
    """Pack ``(N, C, H, W)`` activation bits channel-major:
    ``(N, H, W, ceil(C/64))`` uint64, channel ``c`` at bit ``c % 64`` of
    word ``c // 64`` — the layout the bit-sliced depthwise kernel and the
    pointwise fast path consume."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) bits, got {bits.shape}")
    return pack_bits(np.ascontiguousarray(bits.transpose(0, 2, 3, 1)))


def unpack_feature_map(words: np.ndarray, channels: int) -> np.ndarray:
    """Inverse of :func:`pack_feature_map`: back to ``(N, C, H, W)``."""
    bits = unpack_bits(words, channels)          # (N, H, W, C)
    return np.ascontiguousarray(bits.transpose(0, 3, 1, 2))


def _xor_count_bounds(theta: np.ndarray, fan_in: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Integer disagreement-count thresholds equivalent to the float ones.

    With ``x`` XOR disagreements the ±1 dot product is ``fan_in - 2x``, so
    ``dot >= theta``  ⇔  ``x <= x_le``   and   ``dot <= theta``  ⇔
    ``x >= x_ge``.  The bounds are computed by float division then *nudged*
    until they agree with the direct comparison, so integer thresholding is
    bit-exact with the reference layers even when ``theta`` sits on a
    representable dot value.  ``theta = +inf`` (gamma == 0 channels) maps
    to never/always sentinels outside ``[0, fan_in]``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        x_le = np.floor((fan_in - theta) / 2.0)
        x_ge = np.ceil((fan_in - theta) / 2.0)
    # Non-finite thresholds keep the sign semantics of the float compare:
    # dot >= -inf is always true (x_le -> always), dot >= +inf never;
    # dot <= +inf always (x_ge -> always), dot <= -inf never.
    x_le = np.where(np.isfinite(x_le), x_le,
                    np.where(np.isneginf(theta), fan_in + 1.0, -1.0))
    x_ge = np.where(np.isfinite(x_ge), x_ge,
                    np.where(np.isposinf(theta), 0.0, fan_in + 1.0))
    x_le = np.clip(x_le, -1, fan_in + 1).astype(np.int64)
    x_ge = np.clip(x_ge, -1, fan_in + 1).astype(np.int64)
    finite = np.isfinite(theta)
    for _ in range(2):   # float rounding can be off by at most one step
        x_le = np.where(finite & (fan_in - 2.0 * x_le < theta),
                        x_le - 1, x_le)
        x_le = np.where(finite & (fan_in - 2.0 * (x_le + 1) >= theta),
                        x_le + 1, x_le)
        x_ge = np.where(finite & (fan_in - 2.0 * x_ge > theta),
                        x_ge + 1, x_ge)
        x_ge = np.where(finite & (x_ge >= 1)
                        & (fan_in - 2.0 * (x_ge - 1) <= theta),
                        x_ge - 1, x_ge)
    return x_le, x_ge


class _IntegerThreshold:
    """Folded batch-norm threshold applied to raw disagreement counts.

    Precomputes, per output channel, the integer count bounds equivalent
    to the float ``dot``-vs-``theta`` comparison (see
    :func:`_xor_count_bounds`) as two bounds on the disagreement count
    ``x``: the bit is ``x < below or x >= x_ge``.  Both are stored in the
    unsigned dtype :func:`packed_xor_counts` accumulates in for this
    fan-in, so the compares never upcast the counts.  Never/always
    channels are out-of-range sentinels: ``below = 0`` and ``x_ge =
    fan_in + 1`` never fire, and a constant-one channel (``gamma == 0``
    with ``beta >= 0``, or a saturated bound) has ``below = fan_in + 2``.
    The hot path is two compares and one OR — no float arithmetic.
    """

    def __init__(self, theta: np.ndarray, gamma_sign: np.ndarray,
                 beta_sign: np.ndarray, fan_in: int):
        x_le, x_ge = _xor_count_bounds(theta, fan_in)
        pos = gamma_sign > 0
        neg = gamma_sign < 0
        const = (gamma_sign == 0) & (beta_sign >= 0)
        const = const | (pos & (x_le >= fan_in)) | (neg & (x_ge <= 0))
        live_pos = pos & (0 <= x_le) & (x_le < fan_in)
        live_neg = neg & (0 < x_ge) & (x_ge <= fan_in)
        dtype = _count_dtype(-(-fan_in // _WORD))
        self.below = np.where(const, fan_in + 2,
                              np.where(live_pos, x_le + 1, 0)).astype(dtype)
        self.x_ge = np.where(live_neg, x_ge, fan_in + 1).astype(dtype)

    def apply(self, counts: np.ndarray) -> np.ndarray:
        """``counts``: ``(N, M)`` XOR disagreements -> ``(N, M)`` output
        bits, in the memory order of ``counts`` (a transposed view keeps
        its long contiguous axis)."""
        out = counts < self.below
        out |= counts >= self.x_ge
        return out.view(np.uint8)


# ---------------------------------------------------------------------------
# Dense layers
# ---------------------------------------------------------------------------
class PackedBinaryDense:
    """A folded binary dense layer pre-packed for word-parallel inference.

    Wraps :class:`repro.nn.binary.FoldedBinaryDense` semantics (popcount vs
    threshold with batch-norm sign handling) over the packed kernel; the
    property tests pin bit-exact agreement with the unpacked layer.  The
    weight words are packed **once here, at construction** — per-call work
    is only the activation packing and the popcount itself.
    """

    def __init__(self, folded: FoldedBinaryDense):
        self.in_features = folded.in_features
        self.out_features = folded.out_features
        self.weight_words = pack_bits(folded.weight_bits)
        self.theta = folded.theta
        self.gamma_sign = folded.gamma_sign
        self.beta_sign = folded.beta_sign

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """``(N, in_features)`` bits -> ``(N, out_features)`` bits."""
        if x_bits.shape[-1] != self.in_features:    # packing would hide it
            raise ValueError(f"bit-width mismatch: {x_bits.shape} vs "
                             f"{self.in_features} inputs")
        pc = packed_xnor_popcount(pack_bits(x_bits), self.weight_words,
                                  self.in_features)
        dot = 2 * pc - self.in_features
        return threshold_bits(dot, self.theta[None, :],
                              self.gamma_sign[None, :],
                              self.beta_sign[None, :])

    def __repr__(self) -> str:
        return (f"PackedBinaryDense(in={self.in_features}, "
                f"out={self.out_features}, "
                f"words={self.weight_words.shape[1]})")


class PackedOutputDense:
    """The final binary classifier layer over the packed kernel.

    Mirrors :class:`repro.nn.binary.FoldedOutputDense`: the ±1 dot product
    comes from a packed popcount, the batch-norm affine is applied per
    class, and the prediction is the argmax — no sign follows the last
    layer.
    """

    def __init__(self, folded: FoldedOutputDense):
        self.in_features = folded.in_features
        self.weight_words = pack_bits(folded.weight_bits)
        self.scale = folded.scale
        self.offset = folded.offset

    def forward_scores(self, x_bits: np.ndarray) -> np.ndarray:
        """Class scores from unpacked activation bits."""
        if x_bits.shape[-1] != self.in_features:    # packing would hide it
            raise ValueError(f"bit-width mismatch: {x_bits.shape} vs "
                             f"{self.in_features} inputs")
        pc = packed_xnor_popcount(pack_bits(x_bits), self.weight_words,
                                  self.in_features)
        dot = 2 * pc - self.in_features
        return dot * self.scale[None, :] + self.offset[None, :]

    def predict(self, x_bits: np.ndarray) -> np.ndarray:
        """Predicted class labels from unpacked activation bits."""
        return self.forward_scores(x_bits).argmax(axis=1)

    def __repr__(self) -> str:
        return (f"PackedOutputDense(in={self.in_features}, "
                f"classes={len(self.scale)})")


# ---------------------------------------------------------------------------
# Standard convolutions
# ---------------------------------------------------------------------------
class PackedBinaryConv1d:
    """A folded binary 1-D convolution over the packed kernel.

    Builds each receptive field's patch words by shift-or, never
    unpacking: every input position's ``C_in`` bits are ORed into channel
    words once, and patch word bits ``[C_in*k, C_in*(k+1))`` are tap
    ``k``'s channel word shifted into place (pieces funnel across word
    boundaries when ``C_in`` or the fan-in exceeds 64).  The patch is thus
    laid out k-major, so the weight bits are permuted to k-major once, at
    construction; then one :func:`packed_xor_counts` computes every
    (position, output channel) pair and :class:`_IntegerThreshold` applies
    the folded batch-norm.
    """

    def __init__(self, folded):
        self.folded = folded
        c_in, kernel = folded.in_channels, folded.kernel_size
        k_major = np.asarray(folded.weight_bits).reshape(
            -1, c_in, kernel).transpose(0, 2, 1)
        self.weight_words = pack_bits(k_major.reshape(-1, folded.fan_in))
        self._threshold = _IntegerThreshold(folded.theta, folded.gamma_sign,
                                            folded.beta_sign, folded.fan_in)
        # Channel word w of tap k lands at patch bit C_in*k + 64*w: word
        # ``word``, left-shifted by ``shift``; its high bits spill into the
        # next word (right-shifted by 64 - shift) when they cross the edge.
        self._pieces = []
        for k in range(kernel):
            for w in range(-(-c_in // _WORD)):
                word, shift = divmod(c_in * k + _WORD * w, _WORD)
                spill = shift + min(_WORD, c_in - _WORD * w) > _WORD
                self._pieces.append(
                    (k, w, word, np.uint64(shift),
                     np.uint64(_WORD - shift) if spill else None))

    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """``(N, C_in, L)`` bits -> ``(N, C_out, L_out)`` bits."""
        f = self.folded
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        if x_bits.ndim != 3 or x_bits.shape[1] != f.in_channels:
            raise ValueError(
                f"expected (N, {f.in_channels}, L) bits, got {x_bits.shape}")
        if x_bits.size and x_bits.max() > 1:
            raise ValueError("bits must be 0/1")
        n, _, length = x_bits.shape
        l_out = f.output_length(length)
        patches = self._patch_words(self._channel_words(x_bits), l_out)
        # Weights first: the kernel's inner loop runs along the n * l_out
        # positions, not the C_out channels (see _standard_bits).
        counts = packed_xor_counts(
            self.weight_words, patches.reshape(len(patches), n * l_out).T)
        out = self._threshold.apply(counts.T)
        return out.reshape(n, l_out, f.out_channels).transpose(0, 2, 1)

    @staticmethod
    def _channel_words(x_bits: np.ndarray) -> np.ndarray:
        """``(N, C, L)`` bits -> ``(ceil(C/64), N, L)`` channel words,
        channel ``c`` at bit ``c % 64`` of word ``c // 64``."""
        n, channels, length = x_bits.shape
        words = np.empty((-(-channels // _WORD), n, length), dtype=np.uint64)
        for w, first in enumerate(range(0, channels, _WORD)):
            count = min(_WORD, channels - first)
            # OR in the narrowest type that holds the word's channels.
            dtype = np.min_scalar_type((1 << count) - 1)
            word = x_bits[:, first].astype(dtype)
            for c in range(1, count):
                word |= x_bits[:, first + c].astype(dtype) << dtype.type(c)
            words[w] = word
        return words

    def _patch_words(self, channel_words: np.ndarray,
                     l_out: int) -> np.ndarray:
        """``(ceil(fan_in/64), N, L_out)`` k-major patch words: bit
        ``C_in*k + c`` is channel ``c`` at position ``t*stride + k``."""
        f = self.folded
        span = f.stride * (l_out - 1) + 1
        patches = np.zeros((self.weight_words.shape[1],
                            channel_words.shape[1], l_out), dtype=np.uint64)
        for k, w, word, shift, spill in self._pieces:
            piece = channel_words[w, :, k:k + span:f.stride]
            patches[word] |= piece << shift
            if spill is not None:
                patches[word + 1] |= piece >> spill
        return patches

    def __repr__(self) -> str:
        f = self.folded
        return (f"PackedBinaryConv1d({f.in_channels}->{f.out_channels}, "
                f"k={f.kernel_size}, words={self.weight_words.shape[1]})")


class PackedBinaryConv2d:
    """A folded binary 2-D convolution over the packed kernels.

    Standard convolutions use the bit-packed im2col route of
    :class:`PackedBinaryConv1d` generalized to 2-D.  Depthwise folds use
    the bit-sliced kernel: channel-major packed maps, carry-save counter
    planes for the per-tap disagreements, and a bit-sliced comparator for
    the folded threshold, so 64 channels advance per machine word and the
    layer never unpacks.  ``forward_map`` chains packed channel-major maps
    between layers (depthwise -> pointwise stays in the packed domain).
    """

    def __init__(self, folded):
        self.folded = folded
        kh, kw = folded.kernel_size
        if folded.depthwise:
            c = folded.in_channels
            self._n_chan_words = -(-c // _WORD)
            # (KH, KW, Wc): tap (kh, kw) of every channel, channel-major.
            w = folded.weight_bits.reshape(c, kh, kw)
            self.weight_words = pack_bits(
                np.ascontiguousarray(w.transpose(1, 2, 0)))
            self._prepare_bitsliced_threshold()
        else:
            self.weight_words = pack_bits(folded.weight_bits)
            self._threshold = _IntegerThreshold(
                folded.theta, folded.gamma_sign, folded.beta_sign,
                folded.fan_in)

    # -- bit-sliced threshold preparation (depthwise) -------------------
    def _prepare_bitsliced_threshold(self) -> None:
        f = self.folded
        c = f.in_channels
        x_le, x_ge = _xor_count_bounds(f.theta, f.fan_in)
        pos = f.gamma_sign > 0
        neg = f.gamma_sign < 0
        const_one = (f.gamma_sign == 0) & (f.beta_sign >= 0)
        # Saturated bounds collapse to constant channels so the comparator
        # only ever sees representable thresholds.
        always_pos = pos & (x_le >= f.fan_in)
        never_pos = pos & (x_le < 0)
        always_neg = neg & (x_ge <= 0)
        never_neg = neg & (x_ge > f.fan_in)
        const_one = const_one | always_pos | always_neg
        pos = pos & ~always_pos & ~never_pos
        neg = neg & ~always_neg & ~never_neg
        self._pos_mask = pack_bits(pos.astype(np.uint8))
        self._neg_mask = pack_bits(neg.astype(np.uint8))
        self._const_one = pack_bits(const_one.astype(np.uint8))
        self._n_counter_planes = max(1, int(f.fan_in).bit_length())
        self._le_planes = self._threshold_planes(
            np.where(pos, x_le, 0))
        self._ge_planes = self._threshold_planes(
            np.where(neg, x_ge, 0))
        valid = np.zeros(c, dtype=np.uint8)
        valid[:] = 1
        self._valid_mask = pack_bits(valid)

    def _threshold_planes(self, thresholds: np.ndarray) -> np.ndarray:
        """Channel-packed bit-planes of per-channel integer thresholds."""
        planes = []
        for i in range(self._n_counter_planes):
            planes.append(pack_bits(
                ((thresholds >> i) & 1).astype(np.uint8)))
        return np.stack(planes)     # (planes, Wc)

    # -- execution -------------------------------------------------------
    def forward_bits(self, x_bits: np.ndarray) -> np.ndarray:
        """``(N, C_in, H, W)`` bits -> ``(N, C_out, H_out, W_out)`` bits."""
        f = self.folded
        x_bits = np.asarray(x_bits, dtype=np.uint8)
        if x_bits.ndim != 4 or x_bits.shape[1] != f.in_channels:
            raise ValueError(
                f"expected (N, {f.in_channels}, H, W) bits, got "
                f"{x_bits.shape}")
        if f.depthwise:
            words = self._depthwise_map(pack_feature_map(x_bits))
            return unpack_feature_map(words, f.out_channels)
        return self._standard_bits(x_bits)

    def forward_map(self, x_words: np.ndarray) -> np.ndarray:
        """Channel-major packed maps in and out: ``(N, H, W, Wc_in)`` ->
        ``(N, H_out, W_out, Wc_out)``.

        Depthwise and pointwise (1x1, stride 1) layers run natively on the
        packed maps; other geometries bridge through the im2col route.
        """
        f = self.folded
        if f.depthwise:
            return self._depthwise_map(x_words)
        if f.kernel_size == (1, 1) and f.stride == (1, 1):
            return self._pointwise_map(x_words)
        bits = unpack_feature_map(x_words, f.in_channels)
        return pack_feature_map(self._standard_bits(bits))

    def _standard_bits(self, x_bits: np.ndarray) -> np.ndarray:
        f = self.folded
        n, _, height, width = x_bits.shape
        h_out, w_out = f.output_shape(height, width)
        patches = im2col_2d(x_bits, f.kernel_size, f.stride).reshape(
            n * h_out * w_out, f.fan_in)
        # XOR is symmetric, so weights go first: the (C_out, positions)
        # counts give each of the few channels one long contiguous loop,
        # and the transposed view below is walked in memory order.
        counts = packed_xor_counts(self.weight_words, pack_bits(patches))
        out = self._threshold.apply(counts.T)
        return out.reshape(n, h_out, w_out, f.out_channels) \
            .transpose(0, 3, 1, 2)

    def _pointwise_map(self, x_words: np.ndarray) -> np.ndarray:
        """1x1 convolution: the channel words *are* the im2col patches."""
        f = self.folded
        n, height, width, n_words = x_words.shape
        flat = np.ascontiguousarray(x_words).reshape(-1, n_words)
        counts = packed_xor_counts(flat, self.weight_words)
        out = self._threshold.apply(counts)
        return pack_bits(out).reshape(n, height, width, -1)

    def _depthwise_map(self, x_words: np.ndarray) -> np.ndarray:
        """Bit-sliced depthwise kernel, 64 channels per word.

        Carry-save accumulation: each tap XOR produces one disagreement
        bit-plane per channel lane; ripple-carry addition over the counter
        planes keeps per-channel disagreement counts without ever
        unpacking.  A bit-sliced magnitude comparator then applies the
        folded batch-norm threshold directly on the planes.
        """
        f = self.folded
        kh, kw = f.kernel_size
        sh, sw = f.stride
        n, height, width, n_words = x_words.shape
        h_out, w_out = f.output_shape(height, width)
        counters = [np.zeros((n, h_out, w_out, n_words), dtype=np.uint64)
                    for _ in range(self._n_counter_planes)]
        for i in range(kh):
            for j in range(kw):
                plane = (x_words[:, i:i + h_out * sh:sh,
                                 j:j + w_out * sw:sw, :]
                         ^ self.weight_words[i, j])
                for level in range(self._n_counter_planes):
                    carry = counters[level] & plane
                    counters[level] = counters[level] ^ plane
                    plane = carry
        le = self._compare_le(counters, self._le_planes)
        ge_complement = self._compare_le(counters, self._ge_planes,
                                         strictly_below=True)
        out = (le & self._pos_mask) | (~ge_complement & self._neg_mask) \
            | self._const_one
        return out & self._valid_mask

    def _compare_le(self, counters: list[np.ndarray],
                    threshold_planes: np.ndarray,
                    strictly_below: bool = False) -> np.ndarray:
        """Bit-sliced comparator: per channel lane, is the counter value
        ``<= T`` (or ``< T`` with ``strictly_below``)?"""
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        gt = np.zeros_like(counters[0])
        lt = np.zeros_like(counters[0])
        eq = np.full_like(counters[0], ones)
        for level in range(self._n_counter_planes - 1, -1, -1):
            a = counters[level]
            t = threshold_planes[level]
            gt = gt | (eq & a & ~t)
            lt = lt | (eq & ~a & t)
            eq = eq & ~(a ^ t)
        return lt if strictly_below else ~gt

    def __repr__(self) -> str:
        f = self.folded
        kind = "depthwise, bit-sliced" if f.depthwise else "im2col"
        return (f"PackedBinaryConv2d({f.in_channels}->{f.out_channels}, "
                f"k={f.kernel_size}, {kind})")
