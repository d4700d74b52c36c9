"""Property-based tests (hypothesis) for the stacked-shard fast plan.

The contract: for *any* layer shape, macro geometry and batch, the
program-time stacked plan (one batched kernel over grid-aligned, OR-merged
shard words), the zero-sigma physical sharded path (``fast_path=False``,
real per-shard arrays) and the monolithic controller produce identical
integer popcounts and meters — including ``popcounts_trials`` for any
read budget (trial windows and row blocks) — and the word-domain column slicer equals a bit-domain
slice-then-pack for any (start, stop) range.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.bitops import pack_bits, packed_column_slice
from repro.rram import (AcceleratorConfig, MacroGeometry, MemoryController,
                        ShardedController, trial_streams)

# Prime-heavy pools so shrunk examples still force tail shards and
# word-misaligned fan-in slices.
DIMS = st.sampled_from([1, 2, 3, 7, 13, 31, 37, 63, 64, 65, 67, 131])
MACRO_DIMS = st.sampled_from([1, 3, 7, 8, 13, 16, 64, 256])


def _bits(seed, *shape):
    return np.random.default_rng(seed).integers(0, 2, shape) \
        .astype(np.uint8)


def _set_read_budget(budget, *controllers):
    """Shrink the read windows of sharded controllers and their chips."""
    for controller in controllers:
        for ctrl in (controller, *controller.shards):
            ctrl.read_chunk_elems = budget


def _controllers(weights, macro_rows, macro_cols):
    config = AcceleratorConfig(ideal=True)
    macro = MacroGeometry(macro_rows, macro_cols)
    return (ShardedController(weights, config=config, macro=macro),
            ShardedController(weights, config=config, macro=macro,
                              fast_path=False),
            MemoryController(weights, config))


class TestStackedEquivalenceProperty:
    @given(out_features=DIMS, in_features=DIMS, macro_rows=MACRO_DIMS,
           macro_cols=MACRO_DIMS, n=st.integers(0, 5),
           seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_popcounts_stacked_equals_reference_and_monolithic(
            self, out_features, in_features, macro_rows, macro_cols, n,
            seed):
        weights = _bits(seed, out_features, in_features)
        x = _bits(seed + 1, n, in_features)
        stacked, reference, mono = _controllers(weights, macro_rows,
                                                macro_cols)
        assert stacked.fast_path_kind == "stacked"
        assert reference.fast_path_kind == "noisy"
        counts = stacked.popcounts(x)
        assert np.array_equal(counts, reference.popcounts(x))
        assert np.array_equal(counts, mono.popcounts(x))
        assert stacked.sense_ops == reference.sense_ops
        assert stacked.popcount_bit_ops == reference.popcount_bit_ops

    @given(out_features=DIMS, in_features=DIMS, macro_rows=MACRO_DIMS,
           macro_cols=MACRO_DIMS, n=st.integers(1, 3),
           n_trials=st.integers(1, 4),
           budget=st.sampled_from([1, 64, 512, None]),
           per_trial=st.booleans(), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_popcounts_trials_chunk_invariant_equivalence(
            self, out_features, in_features, macro_rows, macro_cols, n,
            n_trials, budget, per_trial, seed):
        weights = _bits(seed, out_features, in_features)
        shape = (n_trials, n, in_features) if per_trial \
            else (n, in_features)
        x = _bits(seed + 1, *shape)
        stacked, reference, mono = _controllers(weights, macro_rows,
                                                macro_cols)
        if budget is not None:
            _set_read_budget(budget, stacked, reference)
        a = stacked.popcounts_trials(x, trial_streams(7, n_trials))
        b = reference.popcounts_trials(x, trial_streams(7, n_trials))
        assert np.array_equal(a, b)
        serial = np.stack([mono.popcounts(x[t] if per_trial else x)
                           for t in range(n_trials)])
        assert np.array_equal(a, serial)
        assert stacked.sense_ops == reference.sense_ops
        assert stacked.popcount_bit_ops == reference.popcount_bit_ops


class TestPackedColumnSliceProperty:
    @given(width=st.integers(1, 200), n=st.integers(0, 4),
           bounds=st.tuples(st.integers(0, 200), st.integers(0, 200)),
           seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_word_domain_slice_equals_pack_of_bit_slice(self, width, n,
                                                        bounds, seed):
        start, stop = sorted(b % (width + 1) for b in bounds)
        bits = _bits(seed, n, width)
        sliced = packed_column_slice(pack_bits(bits), start, stop)
        assert np.array_equal(sliced, pack_bits(bits[:, start:stop]))
