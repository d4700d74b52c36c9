"""Property-based tests (hypothesis) for the sharded fast path.

The contract: for *any* layer shape, macro geometry, batch and fault map
(none, stuck cells plus dead rows, or stuck cells plus dead macros
remapped onto spares), the sharded fast path (one packed popcount over
the deterministic controller's ``effective_bits``), the zero-sigma
physical sharded path (``fast_path=False``, real per-shard arrays) and a
zero-sigma physical monolithic controller holding the same effective
bits produce identical integer popcounts, and the fast path's
arithmetic meters equal the physical sharded scans' — including
``popcounts_trials`` for any read budget (row blocks of the physical
chips).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.bitops import pack_bits, packed_xnor_popcount
from repro.rram import (AcceleratorConfig, FaultMap, MacroGeometry,
                        MemoryController, ShardedController, trial_streams)

# Prime-heavy pools so shrunk examples still force tail shards and
# word-misaligned fan-in slices.
DIMS = st.sampled_from([1, 2, 3, 7, 13, 31, 37, 63, 64, 65, 67, 131])
MACRO_DIMS = st.sampled_from([1, 3, 7, 8, 13, 16, 64, 256])
FAULTS = st.sampled_from(["none", "stuck+dead rows", "stuck+dead macros"])


def _bits(seed, *shape):
    return np.random.default_rng(seed).integers(0, 2, shape) \
        .astype(np.uint8)


def _set_read_budget(budget, *controllers):
    """Shrink the read windows of sharded controllers' chips."""
    for controller in controllers:
        for ctrl in controller.shards:
            ctrl.read_chunk_elems = budget


def _fault_map(kind, n_shards, data, seed):
    if kind == "none":
        return None
    if kind == "stuck+dead rows":
        return FaultMap(stuck_lrs=0.05, stuck_hrs=0.05, dead_rows=0.1,
                        seed=seed)
    dead = data.draw(st.lists(st.integers(0, n_shards - 1), min_size=1,
                              max_size=2, unique=True))
    return FaultMap(stuck_lrs=0.05, stuck_hrs=0.05,
                    dead_macros=tuple(dead), seed=seed)


def _effective_bits(weights, controller, fault_map):
    """What a noise-free sharded chip set senses: each healthy shard's
    cell faults applied to its slice; a remapped shard's spare chip is
    healthy, so it keeps the stored bits."""
    effective = weights.copy()
    if fault_map is None:
        return effective
    for s in controller.shard_map:
        if s.index not in controller.remapped_shards:
            block = effective[s.row_start:s.row_stop, s.col_start:s.col_stop]
            block[:] = fault_map.apply_bits(block,
                                            controller.fault_key + (s.index,))
    return effective


def _controllers(weights, macro_rows, macro_cols, faults, data, seed):
    config = AcceleratorConfig(ideal=True)
    macro = MacroGeometry(macro_rows, macro_cols)
    n_shards = -(-weights.shape[0] // macro_rows) \
        * -(-weights.shape[1] // macro_cols)
    fault_map = _fault_map(faults, n_shards, data, seed)
    fast = ShardedController(weights, config=config, macro=macro,
                             fault_map=fault_map)
    reference = ShardedController(weights, config=config, macro=macro,
                                  fast_path=False, fault_map=fault_map)
    assert fast.fast_path and not reference.fast_path
    effective = _effective_bits(weights, fast, fault_map)
    assert np.array_equal(fast.effective_bits, effective)
    mono = MemoryController(effective, config, fast_path=False)
    return fast, reference, mono


def _packed_counts(x, controller):
    """The fast path: one packed popcount over the effective bits."""
    return packed_xnor_popcount(pack_bits(x),
                                pack_bits(controller.effective_bits),
                                x.shape[-1])


class TestFastPathEquivalenceProperty:
    @given(out_features=DIMS, in_features=DIMS, macro_rows=MACRO_DIMS,
           macro_cols=MACRO_DIMS, n=st.integers(0, 5), faults=FAULTS,
           seed=st.integers(0, 2**31), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_popcounts_fast_equals_reference_and_monolithic(
            self, out_features, in_features, macro_rows, macro_cols, n,
            faults, seed, data):
        weights = _bits(seed, out_features, in_features)
        x = _bits(seed + 1, n, in_features)
        fast, reference, mono = _controllers(weights, macro_rows,
                                             macro_cols, faults, data, seed)
        counts = _packed_counts(x, fast)
        assert np.array_equal(counts, reference.popcounts(x))
        assert np.array_equal(counts, mono.popcounts(x))
        fast.meter_reads(n, trials=1)
        assert fast.sense_ops == reference.sense_ops
        assert fast.popcount_bit_ops == reference.popcount_bit_ops

    @given(out_features=DIMS, in_features=DIMS, macro_rows=MACRO_DIMS,
           macro_cols=MACRO_DIMS, n=st.integers(1, 3),
           n_trials=st.integers(1, 4),
           budget=st.sampled_from([1, 64, 512, None]),
           per_trial=st.booleans(), faults=FAULTS,
           seed=st.integers(0, 2**31), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_popcounts_trials_chunk_invariant_equivalence(
            self, out_features, in_features, macro_rows, macro_cols, n,
            n_trials, budget, per_trial, faults, seed, data):
        weights = _bits(seed, out_features, in_features)
        shape = (n_trials, n, in_features) if per_trial \
            else (n, in_features)
        x = _bits(seed + 1, *shape)
        fast, reference, mono = _controllers(weights, macro_rows,
                                             macro_cols, faults, data, seed)
        if budget is not None:
            _set_read_budget(budget, reference)
        a = np.stack([_packed_counts(x[t] if per_trial else x, fast)
                      for t in range(n_trials)])
        b = reference.popcounts_trials(x, trial_streams(7, n_trials))
        assert np.array_equal(a, b)
        serial = np.stack([mono.popcounts(x[t] if per_trial else x)
                           for t in range(n_trials)])
        assert np.array_equal(a, serial)
        fast.meter_reads(n, trials=n_trials)
        assert fast.sense_ops == reference.sense_ops
        assert fast.popcount_bit_ops == reference.popcount_bit_ops
