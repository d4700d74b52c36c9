"""The analog front ends folded into one GEMM and an exact threshold.

In the paper's hybrid design the first layer, which sees the analog
ECG/EEG signal, stays in the digital periphery: a float convolution with
±1 weights, a batch-norm and a sign.  The reference evaluation of that
layer is the autograd stack (im2col + GEMM + four batch-norm passes).
This module evaluates the same layer as one numpy GEMM against ±1 taps
folded at load time, then one compare per output against a per-channel
threshold, and proves every bit equal to the reference's:

Exact threshold
    Every op of the eval batch-norm ``((y - mean) / sqrt(var + eps)) *
    gamma + beta >= 0`` is correctly rounded and monotone, so the float64
    pre-activations ``y`` that map to bit 1 form a half-line: ``y >= t``
    for gamma > 0, ``y <= t`` for gamma < 0.  Bisecting the ordered
    float64 values, evaluating that very expression, finds ``t`` exactly.
    The weight rows of gamma < 0 channels are negated (exact for ±1), so
    every channel compares ``y >= t``.
Guard band
    The GEMM sums the same ``n = C_in * K`` terms as the reference, in
    another order.  Two summation orders differ by at most
    ``2 * gamma_n * sum|h|`` with ``gamma_n = n u / (1 - n u)``, and
    ``sum|h| <= n * max|h|`` over the window.  A window with a
    pre-activation within that bound of its threshold, or a non-finite or
    huge input, is recomputed by the reference closure, so the folded
    front is bit-identical to it.  Both fronts guard whole windows: the
    window-wide ``max|h|`` bounds every output's terms.
"""

from __future__ import annotations

import numpy as np

from repro.nn.binary import from_bits
from repro.rram.conv import max_pool_bits_1d
from repro.tensor.im2col import conv_output_length

__all__ = ["bn_sign_threshold", "conv1d_front", "conv2d_front"]

_SIGN = np.uint64(1 << 63)
_FMAX = np.finfo(np.float64).max
_U = 2.0 ** -53
# Pre-activations are trusted up to this magnitude (rows that may exceed
# it go to the reference).  It sits far above any physical signal and far
# below overflow, so a gamma == 0 channel is constant over it whenever
# sqrt(var + eps) > 2**-511.
_Y_LIMIT = 2.0 ** 512
# Added to max|h_row| so the band's product stays a normal float, whose
# rounding the band's 0.1% margin covers.
_TINY = 2.0 ** -900
# Bytes of the (K * C_out, rows * L) partial-sum buffer the ECG front's
# GEMM fills per batch tile: small enough that the K shifted adds over it
# run in cache (about 50 rows of the 12-lead, 200-sample ECG fixture).
_PARTIAL_BYTES = 4 << 20


def _to_key(y: np.ndarray) -> np.ndarray:
    """Order-preserving map of float64 onto uint64."""
    bits = np.asarray(y, dtype=np.float64).view(np.uint64)
    return np.where(bits & _SIGN, ~bits, bits | _SIGN)


def _from_key(key: np.ndarray) -> np.ndarray:
    return np.where(key & _SIGN, key & ~_SIGN, ~key).view(np.float64)


def bn_sign_threshold(mean, var, gamma, beta, eps: float):
    """Per-channel ``(sign, t)`` with ``to_bits(BN(y)) == (sign * y >= t)``.

    Exact for every float64 ``|y| <= 2**512``, for any parameters.
    ``t`` is ±inf for a channel that is constant there, and NaN for one
    whose bit is no half-line there (gamma == 0 with a vanishing std):
    the guard then sends every row to the reference.
    """
    mean, var, gamma, beta = (np.asarray(a, dtype=np.float64)
                              for a in (mean, var, gamma, beta))
    std = np.sqrt(var + eps)

    def bit(y):
        with np.errstate(all="ignore"):
            return ((y - mean) / std) * gamma + beta >= 0

    sign = np.where(gamma < 0, -1.0, 1.0)

    def up(key):        # monotone False -> True along the keys
        return bit(sign * _from_key(key))

    lo = np.full(gamma.shape, _to_key(-_FMAX))
    hi = np.full(gamma.shape, _to_key(_FMAX))
    all_true, any_true = up(lo), up(hi)
    while True:         # invariant: up(lo) False, up(hi) True
        open_ = hi - lo > 1
        if not open_.any():
            break
        mid = lo + (hi - lo) // 2
        mid_up = up(mid)
        hi = np.where(open_ & mid_up, mid, hi)
        lo = np.where(open_ & ~mid_up, mid, lo)
    t = np.where(all_true, -np.inf, np.where(any_true, _from_key(hi), np.inf))

    # gamma == 0 or NaN: BN(y) is ±0 + beta while (y - mean) / std stays
    # finite (true on [-L, L] once it is at ±L), and NaN past that.
    flat = ~((gamma > 0) | (gamma < 0))
    ends = bit(np.array([-_Y_LIMIT, 0.0, _Y_LIMIT])[:, None]).all(axis=0)
    never = ~(beta >= 0) | np.isnan(gamma)
    t_flat = np.where(ends, -np.inf, np.where(never, np.inf, np.nan))
    return sign, np.where(flat, t_flat, t)


def _guarded(dist: np.ndarray, h_max: np.ndarray, n_terms: int):
    """Rows the folded sum of ``n_terms`` cannot decide (module docstring).

    ``dist``: smallest ``|y - t|`` of each row; ``h_max``: largest ``|h|``
    it summed.  NaN in either marks the row.
    """
    gamma_n = n_terms * _U / (1 - n_terms * _U)
    band = 2.0 * gamma_n * n_terms * 1.001
    h_limit = _Y_LIMIT / (n_terms * (1 + 2 * gamma_n) * 1.001)
    return ~((dist > band * (h_max + _TINY)) & (h_max <= h_limit))


def _abs_max(a: np.ndarray, axis) -> np.ndarray:
    """``max|a|`` along ``axis`` without an ``|a|`` temporary (NaN kept)."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


def _windows(inputs, per_sample: tuple, what: str) -> np.ndarray:
    """Inputs as float64 ``(N,) + per_sample`` (``None`` matches any)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 1 + len(per_sample) or any(
            want is not None and got != want
            for got, want in zip(x.shape[1:], per_sample)):
        expected = ", ".join("?" if s is None else str(s) for s in per_sample)
        raise ValueError(f"expected {what} windows of shape "
                         f"(N, {expected}), got {x.shape}")
    return x


def _redo(bits: np.ndarray, rows: np.ndarray, inputs, reference):
    """Overwrite the guarded ``rows`` of ``bits`` with the reference's."""
    if rows.any():
        bits[rows] = reference(np.asarray(inputs)[rows])
    return bits


def conv1d_front(weight_bits: np.ndarray, norm_mean: np.ndarray,
                 norm_std: np.ndarray, bn: dict, stride: int, padding: int,
                 pool: tuple[int, int] | None, length: int | None,
                 reference):
    """ECG front: input-norm + conv + batch-norm + sign [+ max-pool].

    ``bn`` holds ``mean``, ``var``, ``gamma``, ``beta`` and ``eps``;
    ``reference`` is the closure whose bits this one reproduces.
    """
    c_out, c_in, kernel = weight_bits.shape
    sign, t = bn_sign_threshold(**bn)
    weights = from_bits(weight_bits) * sign[:, None, None]
    # (K * C_out, C_in): one GEMM yields every tap's partial sums.
    taps = np.ascontiguousarray(
        weights.transpose(2, 0, 1).reshape(kernel * c_out, c_in))
    t = t[:, None, None]
    mean = np.asarray(norm_mean, dtype=np.float64)[:, None, None]
    std = np.asarray(norm_std, dtype=np.float64)[:, None, None]

    def run(inputs: np.ndarray) -> np.ndarray:
        x = _windows(inputs, (c_in, length), "ECG (leads, time)")
        n, _, width = x.shape
        padded = width + 2 * padding
        l_out = conv_output_length(width, kernel, stride, padding)
        span = stride * (l_out - 1) + 1
        tile = max(1, min(n, _PARTIAL_BYTES // (8 * kernel * c_out * padded)))
        bits = np.empty((n, c_out, l_out), dtype=np.uint8)
        rows = np.zeros(n, dtype=bool)
        # h = (x - mean) / std, as InputNorm computes it, laid out
        # (C_in, rows, L) so the GEMM runs over rows * L columns at once.
        h = (np.zeros if padding else np.empty)((c_in, tile, padded))
        partial_buffer = np.empty(kernel * c_out * tile * padded)
        for first in range(0, n, tile):
            m = min(tile, n - first)
            core = h[:, :m, padding:padding + width]
            np.subtract(x[first:first + m].transpose(1, 0, 2), mean,
                        out=core)
            np.divide(core, std, out=core)
            partial = partial_buffer[:kernel * c_out * m * padded].reshape(
                kernel, c_out * m * padded)
            np.matmul(taps, h[:, :m].reshape(c_in, m * padded),
                      out=partial.reshape(kernel * c_out, m * padded))
            # Tap k's partial sums are added into tap 0's, in place, as K
            # contiguous shifted slices of the flat (C_out, m * L) buffer:
            # column j gathers column j + k, which stays in j's own window
            # for every column an output reads (j = t * stride < span).
            # Contiguous adds run ~3x faster than strided ones, so a
            # stride > 1 pays for the columns no output reads.
            valid = partial.shape[1] - kernel + 1
            for k in range(1, kernel):
                partial[0, :valid] += partial[k, k:k + valid]
            y = partial[0].reshape(c_out, m, padded)[:, :, :span:stride]
            y -= t
            np.greater_equal(y, 0, out=bits[first:first + m].transpose(
                1, 0, 2).view(bool))
            np.abs(y, out=y)
            # Channel axis first: (m, L) slabs reduce faster than the
            # strided (0, 2) pair.
            rows[first:first + m] = _guarded(
                y.min(axis=0).min(axis=1), _abs_max(core, 0).max(axis=1),
                c_in * kernel)
        if pool is not None:
            bits = max_pool_bits_1d(bits, *pool)
        return _redo(bits, rows, inputs, reference)

    return run


def conv2d_front(weight_bits: np.ndarray, bn: dict, n_channels: int,
                 n_samples: int, stride: int, padding: int, reference):
    """EEG front: per-electrode temporal conv + batch-norm + sign.

    ``weight_bits`` is the ``(C_out, 1, K, 1)`` temporal kernel and
    ``stride``/``padding`` its time-axis geometry; the output bits are
    ``(N, C_out, H_out, electrodes)`` like the 2-D convolution's.  The
    guard (module docstring) is decided per window from the smallest
    ``|y - t|`` over all its outputs and the largest ``|x|`` over all its
    electrodes, so a flagged window is redone whole by ``reference``.
    """
    c_out, _, kernel, _ = weight_bits.shape
    sign, t = bn_sign_threshold(**bn)
    weights = from_bits(weight_bits[:, 0, :, 0]) * sign[:, None]
    h_out = conv_output_length(n_samples, kernel, stride, padding)
    # (T, C_out * H_out) Toeplitz matrix: column (c, j) holds channel c's
    # taps at the input times output j reads.
    toeplitz = np.zeros((n_samples, c_out, h_out))
    for k in range(kernel):
        times = np.arange(h_out) * stride - padding + k
        inside = (times >= 0) & (times < n_samples)
        toeplitz[times[inside], :, np.flatnonzero(inside)] = weights[:, k]
    toeplitz = toeplitz.reshape(n_samples, c_out * h_out)
    thresholds = np.repeat(t, h_out)

    def run(inputs: np.ndarray) -> np.ndarray:
        x = _windows(inputs, (n_channels, n_samples),
                     "EEG (electrodes, time)")
        n = x.shape[0]
        # Float arrays stay row-major; only the uint8 bits are transposed.
        signal = x.reshape(n * n_channels, n_samples)
        with np.errstate(invalid="ignore"):     # inf * 0 in a guarded row
            y = signal @ toeplitz
        y -= thresholds
        bits = y >= 0
        np.abs(y, out=y)
        # One guard per window over its (E * T) inputs and (E * C_out *
        # H_out) outputs: a window's dist is at most each electrode row's
        # and its max|h| at least each row's, so it flags every window a
        # per-row guard would, from long rows instead of short ones.
        windows = _guarded(y.reshape(n, -1).min(axis=1),
                           _abs_max(x.reshape(n, -1), 1), kernel)
        bits = np.ascontiguousarray(
            bits.view(np.uint8).reshape(n, n_channels, c_out, h_out)
            .transpose(0, 2, 3, 1))
        return _redo(bits, windows, inputs, reference)

    return run
