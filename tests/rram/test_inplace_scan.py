"""The in-place noisy scan is exactly the stacked formula it replaced.

``MemoryController.popcounts_trials`` and ``RRAMArray.read_all_trials``
draw each trial's offsets into one reused buffer through
``SenseParameters.offset(rng, shape, out=buf)`` and decide a read as
``offset > -margin``.  The stacked formula below draws with
``rng.normal``, stacks the trials and decides ``margin + offset > 0``.
The two agree bit for bit because

* ``normal(0, s)`` is ``0.0 + s * z`` on the same ziggurat stream as
  ``standard_normal`` (the ``0.0 +`` only turns ``-0.0`` into ``+0.0``);
* rounding a two-term sum keeps its sign, so ``fl(m + o) > 0`` holds
  exactly when ``o > -m`` — for signed zeros and infinite margins too;
* every trial still draws its rows in order from its own stream.

The margins are overwritten with values that stress those steps:
signed zeros, infinities, subnormals and huge finite values.
"""

import tracemalloc

import numpy as np
import pytest

from repro.rram import (AcceleratorConfig, DeviceParameters,
                        MemoryController, RRAMArray, SenseParameters,
                        trial_streams)
from repro.rram.mc import READ_CHUNK_ELEMS, trial_chunks

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                    1e308, -1e308])


def stacked_popcounts(margins, x_bits, rngs, sense, read_chunk_elems):
    """The previous noisy scan: trial-stacked offsets drawn with
    ``rng.normal``, added to the margins, compared against zero."""
    shared = x_bits.ndim == 2
    n = x_bits.shape[0] if shared else x_bits.shape[1]
    out_p, fan_in = margins.shape
    x_bool = x_bits.astype(bool)
    counts = np.empty((len(rngs), n, out_p), dtype=np.int64)
    for t0, t1 in trial_chunks(len(rngs), n * out_p * fan_in,
                               read_chunk_elems):
        sub = rngs[t0:t1]
        chunk = max(1, read_chunk_elems // max(1, len(sub) * out_p * fan_in))
        for start in range(0, n, chunk):
            xs = x_bool[start:start + chunk] if shared \
                else x_bool[t0:t1, start:start + chunk]
            rows = xs.shape[0] if shared else xs.shape[1]
            offsets = np.stack([sense.offset(rng, (rows,) + margins.shape)
                                for rng in sub])
            weight_read = (margins[None, None] + offsets) > 0
            x_cmp = xs[None, :, None, :] if shared else xs[:, :, None, :]
            counts[t0:t1, start:start + rows] = \
                (weight_read == x_cmp).sum(axis=3, dtype=np.int64)
    return counts


def _stress_margins(shape, rng):
    """Random margins with every special value planted in them."""
    margins = rng.normal(0.0, 1.5, shape)
    flat = margins.reshape(-1)
    sites = rng.choice(flat.size, size=4 * SPECIAL.size, replace=False)
    flat[sites] = np.tile(SPECIAL, 4)
    return margins


def _controller(sigma, out_features=40, in_features=45, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 2, (out_features, in_features)).astype(np.uint8)
    config = AcceleratorConfig(sense=SenseParameters(offset_sigma=sigma))
    controller = MemoryController(weights, config,
                                  rng=np.random.default_rng(seed + 1),
                                  fast_path=False)
    margins = controller._stacked_margins()
    controller._margins = _stress_margins(margins.shape, rng)
    return controller


@pytest.mark.parametrize("chunk_elems", [1, READ_CHUNK_ELEMS])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 2.5])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("shared", [True, False])
def test_scan_equals_stacked_formula(shared, trials, sigma, chunk_elems):
    controller = _controller(sigma)
    controller.read_chunk_elems = chunk_elems
    rng = np.random.default_rng(17)
    shape = (7, controller.in_features) if shared \
        else (trials, 7, controller.in_features)
    x_bits = rng.integers(0, 2, shape).astype(np.uint8)
    got = controller.popcounts_trials(x_bits, trial_streams(3, trials))
    want = stacked_popcounts(controller._margins, x_bits,
                             trial_streams(3, trials),
                             controller.config.sense, chunk_elems)
    assert np.array_equal(got, want[:, :, :controller.out_features])


@pytest.mark.parametrize("sigma", [0.0, 0.5, 2.5])
@pytest.mark.parametrize("mode", ["2T2R", "1T1R"])
def test_array_reads_equal_stacked_formula(mode, sigma):
    rng = np.random.default_rng(4)
    array = RRAMArray(12, 20, rng=rng, mode=mode,
                      sense=SenseParameters(offset_sigma=sigma))
    array.program(rng.integers(0, 2, (12, 20)).astype(np.uint8))
    if mode == "2T2R":
        array._margin_cache = _stress_margins((12, 20), rng)
    margin = array._read_margin()
    got = array.read_all_trials(trial_streams(5, 3))
    offsets = np.stack([array.sense.offset(r, (12, 20))
                        for r in trial_streams(5, 3)])
    want = (margin[None] + offsets > 0).astype(np.uint8)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


@pytest.mark.parametrize("sigma", [0.0, 0.15, 2.5])
@pytest.mark.parametrize("shape", [(1,), (5,), (3, 4, 5)])
def test_offset_out_matches_fresh_draw(shape, sigma):
    sense = SenseParameters(offset_sigma=sigma)
    fresh_rng, inplace_rng = (np.random.default_rng(8) for _ in range(2))
    fresh = sense.offset(fresh_rng, shape)
    buf = np.full(shape, np.nan)
    inplace = sense.offset(inplace_rng, shape, out=buf)
    assert inplace is buf
    assert np.array_equal(fresh, inplace)
    # Both streams stand at the same position afterwards.
    assert np.array_equal(fresh_rng.standard_normal(6),
                          inplace_rng.standard_normal(6))


def test_offset_out_shape_must_match():
    with pytest.raises(ValueError, match="shape"):
        SenseParameters().offset(np.random.default_rng(0), (3, 4),
                                 out=np.empty((4, 3)))


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_never_stacks_trial_offsets():
    """A T=8 scan keeps one trial's scratch: its peak stays below two
    trials' worth of float64 offsets, which any trial stack exceeds."""
    controller = _controller(1.0, out_features=64, in_features=256)
    x_bits = np.random.default_rng(1).integers(
        0, 2, (32, controller.in_features)).astype(np.uint8)
    controller.popcounts_trials(x_bits, trial_streams(0, 1))   # warm
    per_trial_bytes = 8 * x_bits.shape[0] * controller._margins.size
    peak = _peak_bytes(lambda: controller.popcounts_trials(
        x_bits, trial_streams(0, 8)))
    assert peak < 2 * per_trial_bytes, (peak, per_trial_bytes)


def test_array_reads_never_stack_trial_offsets():
    """A T=8 array read holds the uint8 result, one float64 offset
    buffer and the negated margins; a second trial's offsets would
    overflow the slack."""
    device = DeviceParameters(sigma_lrs0=0.0, sigma_hrs0=0.0)
    rng = np.random.default_rng(2)
    array = RRAMArray(256, 256, params=device, rng=rng)
    array.program(rng.integers(0, 2, (256, 256)).astype(np.uint8))
    array.read_all_trials(trial_streams(0, 1))   # warm the margin cache
    trials = 8
    per_trial_bytes = 8 * array.n_rows * array.n_cols
    result_bytes = trials * array.n_rows * array.n_cols
    peak = _peak_bytes(lambda: array.read_all_trials(
        trial_streams(0, trials)))
    slack = per_trial_bytes // 4
    assert peak < 2 * per_trial_bytes + result_bytes + slack, \
        (peak, per_trial_bytes)
